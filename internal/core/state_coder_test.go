package core

import (
	"testing"

	"autofl/internal/data"
	"autofl/internal/dbscan"
	"autofl/internal/device"
	"autofl/internal/interference"
	"autofl/internal/qlearn"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// bucketSamples returns one representative value per bucket of a
// boundary set: a value strictly inside every interval, plus the
// boundary values themselves (which belong to the bucket above, per
// dbscan.Bucket).
func bucketSamples(boundaries []float64) []float64 {
	out := []float64{boundaries[0] - 1}
	for i, b := range boundaries {
		out = append(out, b)
		if i+1 < len(boundaries) {
			out = append(out, (b+boundaries[i+1])/2)
		} else {
			out = append(out, b+1)
		}
	}
	return out
}

func modelWithLayers(conv, fc, rc int) *workload.Model {
	m := &workload.Model{Name: "synthetic", Dataset: workload.CNNMNIST().Dataset}
	for i := 0; i < conv; i++ {
		m.Layers = append(m.Layers, workload.Layer{Kind: workload.Conv})
	}
	for i := 0; i < fc; i++ {
		m.Layers = append(m.Layers, workload.Layer{Kind: workload.FC})
	}
	for i := 0; i < rc; i++ {
		m.Layers = append(m.Layers, workload.Layer{Kind: workload.RC})
	}
	return m
}

// deviceStateFor builds a DeviceState hitting the given raw feature
// values (staleness 0, the synchronous default).
func deviceStateFor(cpu, mem, bw, frac float64) sim.DeviceState {
	return sim.DeviceState{
		Device:        &device.Device{Spec: device.HighEndSpec()},
		Load:          interference.Load{CPUUtil: cpu, MemUtil: mem},
		BandwidthMbps: bw,
		Data:          &data.DeviceData{ClassFraction: frac},
	}
}

// TestStateCoderInjective enumerates every reachable bucket
// combination — all global layer/parameter buckets crossed with all
// local runtime/data buckets — and checks that (1) the packed key is
// injective over bucket combinations, and (2) the packed key agrees
// with the legacy string key: two states share a packed key exactly
// when they share the string key.
func TestStateCoderInjective(t *testing.T) {
	b := DefaultBuckets()
	coder := NewStateCoder(b)

	convVals := []int{0, 1, 5, 15, 30, 50}
	fcVals := []int{0, 1, 5, 20}
	rcVals := []int{0, 1, 3, 7, 20}
	bVals := []int{4, 8, 16, 32}
	eVals := []int{1, 5, 8, 10, 20}
	kVals := []int{5, 10, 30, 50, 80}

	globalSeen := map[string]qlearn.StateKey{}
	packedSeen := map[qlearn.StateKey]string{}
	for _, conv := range convVals {
		for _, fc := range fcVals {
			for _, rc := range rcVals {
				w := modelWithLayers(conv, fc, rc)
				for _, bb := range bVals {
					for _, e := range eVals {
						for _, k := range kVals {
							p := workload.GlobalParams{B: bb, E: e, K: k}
							str := GlobalStateKey(w, p)
							packed := coder.GlobalKey(w, p)
							if prev, ok := globalSeen[str]; ok && prev != packed {
								t.Fatalf("string key %s mapped to two packed keys: %d, %d", str, prev, packed)
							}
							if prev, ok := packedSeen[packed]; ok && prev != str {
								t.Fatalf("packed key %d collides: %s vs %s", packed, prev, str)
							}
							globalSeen[str] = packed
							packedSeen[packed] = str
						}
					}
				}
			}
		}
	}

	// Local cross product: zero plus one value per co-utilization
	// bucket, every bandwidth, data-fraction, and staleness bucket.
	cpuVals := append([]float64{0}, bucketSamplesPositive(b.CoCPU)...)
	memVals := append([]float64{0}, bucketSamplesPositive(b.CoMem)...)
	bwVals := bucketSamples(b.NetworkMbps)
	fracVals := bucketSamplesPositive(b.DataFraction)
	staleVals := []int{0, 1, 2, 3, 4, 9}

	localSeen := map[string]qlearn.StateKey{}
	localPacked := map[qlearn.StateKey]string{}
	for _, cpu := range cpuVals {
		for _, mem := range memVals {
			for _, bw := range bwVals {
				for _, frac := range fracVals {
					for _, stale := range staleVals {
						ds := deviceStateFor(cpu, mem, bw, frac)
						ds.Staleness = stale
						str := b.LocalStateKey(&ds)
						packed := coder.LocalKey(&ds)
						if prev, ok := localSeen[str]; ok && prev != packed {
							t.Fatalf("local string key %s mapped to two packed keys", str)
						}
						if prev, ok := localPacked[packed]; ok && prev != str {
							t.Fatalf("local packed key %d collides: %s vs %s", packed, prev, str)
						}
						localSeen[str] = packed
						localPacked[packed] = str
					}
				}
			}
		}
	}

	// Joined keys: every (global, local) pair distinct, and the
	// Format matches the legacy string form exactly.
	joined := map[qlearn.StateKey]bool{}
	for gStr, gPacked := range globalSeen {
		for lStr, lPacked := range localSeen {
			full := qlearn.StateKey(uint64(gPacked)*coder.localSpace) + lPacked
			// Spot-check Key() agrees via a reconstructed device state
			// below; here check uniqueness and formatting.
			if joined[full] {
				t.Fatalf("joined key %d not unique", full)
			}
			joined[full] = true
			if got, want := coder.Format(full), StateKey(gStr, lStr); got != want {
				t.Fatalf("Format(%d) = %q, want legacy %q", full, got, want)
			}
		}
	}
	if uint64(len(joined)) > coder.StateSpace() {
		t.Fatalf("enumerated %d keys exceeds declared state space %d", len(joined), coder.StateSpace())
	}
}

// bucketSamplesPositive is bucketSamples restricted to positive values
// (utilization and fractions cannot go below zero, and zero is the
// dedicated "none" bucket for co-utilization features).
func bucketSamplesPositive(boundaries []float64) []float64 {
	var out []float64
	for _, v := range bucketSamples(boundaries) {
		if v > 0 {
			out = append(out, v)
		}
	}
	return out
}

// TestStateCoderMatchesControllerKey pins the composed Key() path the
// controller uses to the two-step global+local form.
func TestStateCoderMatchesControllerKey(t *testing.T) {
	b := DefaultBuckets()
	coder := NewStateCoder(b)
	w := workload.CNNMNIST()
	p := workload.S3
	g := coder.GlobalKey(w, p)
	stale := deviceStateFor(0.2, 0.4, 30, 0.8)
	stale.Staleness = 3
	for _, ds := range []sim.DeviceState{
		deviceStateFor(0, 0, 100, 1),
		deviceStateFor(0.5, 0.9, 20, 0.3),
		deviceStateFor(0.1, 0, 50, 0.6),
		stale,
	} {
		full := coder.Key(g, &ds)
		want := StateKey(GlobalStateKey(w, p), b.LocalStateKey(&ds))
		if got := coder.Format(full); got != want {
			t.Errorf("Key/Format = %q, want %q", got, want)
		}
	}
}

// TestStateCoderSpace sanity-checks the declared key-space size for
// the default buckets: small enough that a uint64 never overflows and
// the dense interner stays compact.
func TestStateCoderSpace(t *testing.T) {
	coder := NewStateCoder(DefaultBuckets())
	// 5*3*4*3*3*3 global × 4*4*2*4*4 local = 1620 × 512 (the trailing
	// ×4 is the async staleness digit).
	if got := coder.StateSpace(); got != 1620*512 {
		t.Errorf("StateSpace = %d, want %d", got, 1620*512)
	}
	// A Buckets without staleness boundaries keeps the pre-async local
	// space: the digit collapses to radix 1.
	legacy := DefaultBuckets()
	legacy.Staleness = nil
	if got := NewStateCoder(legacy).StateSpace(); got != 1620*128 {
		t.Errorf("StateSpace without staleness buckets = %d, want %d", got, 1620*128)
	}
	// Battery buckets multiply the local space; the nil default keeps
	// the battery digit at radix 1 (pinned by the 1620*512 check above).
	batt := DefaultBuckets()
	batt.Battery = []float64{0.25, 0.6}
	if got := NewStateCoder(batt).StateSpace(); got != 1620*512*3 {
		t.Errorf("StateSpace with 2 battery boundaries = %d, want %d", got, 1620*512*3)
	}
}

// TestStateCoderBatteryDigit checks the battery state-of-charge digit:
// distinct charge buckets produce distinct packed keys and Format stays
// in lockstep with the legacy string key.
func TestStateCoderBatteryDigit(t *testing.T) {
	b := DefaultBuckets()
	b.Battery = []float64{0.25, 0.6}
	coder := NewStateCoder(b)
	w := workload.CNNMNIST()
	p := workload.S3
	g := coder.GlobalKey(w, p)

	seen := map[qlearn.StateKey]float64{}
	for _, charge := range []float64{0, 0.1, 0.25, 0.4, 0.6, 0.9, 1} {
		ds := deviceStateFor(0.2, 0.4, 30, 0.8)
		ds.Battery = charge
		full := coder.Key(g, &ds)
		want := StateKey(GlobalStateKey(w, p), b.LocalStateKey(&ds))
		if got := coder.Format(full); got != want {
			t.Errorf("charge %g: Format = %q, want legacy %q", charge, got, want)
		}
		for prev, pc := range seen {
			sameBucket := dbscan.Bucket(charge, b.Battery) == dbscan.Bucket(pc, b.Battery)
			if (full == prev) != sameBucket {
				t.Errorf("charges %g and %g: key equality %v, same bucket %v", charge, pc, full == prev, sameBucket)
			}
		}
		seen[full] = charge
	}
}
