package data

import (
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// atProcs returns f() computed under runtime.GOMAXPROCS(n), the
// partition's worker count, and then restores the previous setting.
// No test in the module calls t.Parallel, so no other test sees the
// change.
func atProcs[T any](n int, f func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return f()
}

// TestPackedWorkerInvariance pins the keyed-stream property the
// parallel generator rests on: the assignment for device i is a pure
// function of (seed, i), so the worker count must not change a byte.
func TestPackedWorkerInvariance(t *testing.T) {
	const n = 2000
	gen := func() *Packed { return PackedPartition(42, NonIID75, n, 10, 500) }
	a, b := atProcs(1, gen), atProcs(7, gen)
	for i := 0; i < n; i++ {
		if a.Mask[i] != b.Mask[i] || a.Quality[i] != b.Quality[i] ||
			a.ClassFrac[i] != b.ClassFrac[i] || a.Samples[i] != b.Samples[i] {
			t.Fatalf("device %d differs between 1-worker and 7-worker generation", i)
		}
	}
}

// TestExactPackedPartition pins the exhaustive form: exactly
// round(f·n) non-IID devices, worker-count invariant, every device
// keeping its PackedPartition sample count, and the IID and
// all-non-IID scenarios generated byte for byte as PackedPartition
// generates them.
func TestExactPackedPartition(t *testing.T) {
	for _, sc := range Scenarios() {
		for _, n := range []int{1, 7, 200} {
			gen := func() *Packed { return ExactPackedPartition(5, sc, n, 80, 500) }
			exact := atProcs(1, gen)
			bern := atProcs(1, func() *Packed { return PackedPartition(5, sc, n, 80, 500) })
			if !reflect.DeepEqual(exact, atProcs(3, gen)) {
				t.Errorf("%s n=%d: worker count changed the exact partition", sc.Name, n)
			}
			nonIID := 0
			for _, q := range exact.Quality {
				if q < 1 {
					nonIID++
				}
			}
			if want := int(float64(n)*sc.NonIIDFraction + 0.5); nonIID != want {
				t.Errorf("%s n=%d: %d non-IID devices, want %d", sc.Name, n, nonIID, want)
			}
			if !slices.Equal(exact.Samples, bern.Samples) {
				t.Errorf("%s n=%d: sample counts differ from PackedPartition", sc.Name, n)
			}
			if f := sc.NonIIDFraction; (f == 0 || f == 1) && !reflect.DeepEqual(exact, bern) {
				t.Errorf("%s n=%d: exact partition differs from PackedPartition", sc.Name, n)
			}
		}
	}
}

func TestPackedIIDDevices(t *testing.T) {
	p := PackedPartition(1, IdealIID, 100, 10, 500)
	full := uint64(1<<10 - 1)
	for i := 0; i < p.Len(); i++ {
		if p.Mask[i] != full {
			t.Fatalf("IID device %d mask %#x, want full coverage", i, p.Mask[i])
		}
		if p.Quality[i] != 1 || p.ClassFrac[i] != 1 {
			t.Fatalf("IID device %d quality=%v frac=%v, want 1", i, p.Quality[i], p.ClassFrac[i])
		}
		if p.Samples[i] < 350 || p.Samples[i] > 650 {
			t.Fatalf("device %d samples %d outside the clamped normal band", i, p.Samples[i])
		}
	}
	if p.Coverage(full) != 1 {
		t.Errorf("Coverage(full) = %v, want 1", p.Coverage(full))
	}
}

// meanQuality averages the per-device quality.
func meanQuality(p *Packed) float64 {
	total := 0.0
	for _, q := range p.Quality {
		total += float64(q)
	}
	return total / float64(p.Len())
}

// TestPackedNonIIDStatistics checks the packed realization against the
// scenario distribution: the mean quality lies within 0.05 of an
// independent realization's, and per-device coverage is sparse. The
// reference means (0.6035, 0.4061, 0.2083) come from a sequential
// partition that drew the devices from one stream, at the same seed,
// size, class count and mean sample count, with an exact non-IID
// count.
func TestPackedNonIIDStatistics(t *testing.T) {
	const n, classes = 5000, 10
	for _, c := range []struct {
		sc   Scenario
		want float64
	}{{NonIID50, 0.6035}, {NonIID75, 0.4061}, {NonIID100, 0.2083}} {
		p := PackedPartition(9, c.sc, n, classes, 500)
		if got := meanQuality(p); got < c.want-0.05 || got > c.want+0.05 {
			t.Errorf("%s: mean quality %v, want %v ± 0.05", c.sc.Name, got, c.want)
		}
		// Dirichlet(0.1) concentrates mass on few classes: every device
		// covers at least one class, and mean coverage sits well below
		// full.
		totalBits := 0
		for i := 0; i < n; i++ {
			c := bits.OnesCount64(p.Mask[i])
			if c == 0 {
				t.Fatalf("device %d has an empty mask", i)
			}
			totalBits += c
			if p.Quality[i] <= 0 {
				t.Fatalf("device %d: non-positive quality %v", i, p.Quality[i])
			}
		}
		if mean := float64(totalBits) / n; mean > 0.8*classes {
			t.Errorf("%s: mean class coverage %v of %d classes — not concentrated", c.sc.Name, mean, classes)
		}
	}
}

// TestPackedProportionsRoundTrip pins Proportions to the generator:
// for every device of a NonIID75 partition, at 10 classes and at 1,000
// (past the mask's 64-bucket fold), the replayed proportions reduce to
// the stored Mask, ClassFrac and Quality bit for bit, and an IID
// device replays nil.
func TestPackedProportionsRoundTrip(t *testing.T) {
	for _, gen := range generators {
		for _, classes := range []int{10, 1000} {
			p := gen(12, NonIID75, 400, classes, 500)
			iid := 0
			for i := 0; i < p.Len(); i++ {
				props := p.Proportions(i)
				if props == nil {
					iid++
					if p.Mask[i] != fullMask(p.Buckets) || p.ClassFrac[i] != 1 || p.Quality[i] != 1 {
						t.Fatalf("%d classes, device %d: nil proportions on a non-IID device", classes, i)
					}
					continue
				}
				var mask uint64
				present, best, sumSq := 0, 0, 0.0
				for c, pr := range props {
					sumSq += pr * pr
					if pr > props[best] {
						best = c
					}
					if pr*float64(p.Samples[i]) >= 1 {
						present++
						mask |= 1 << classBucket(c, classes)
					}
				}
				if present == 0 {
					present, mask = 1, 1<<classBucket(best, classes)
				}
				frac := float32(present) / float32(classes)
				q := float32(min(1/sumSq/float64(classes), 1))
				if p.Mask[i] != mask || p.ClassFrac[i] != frac || p.Quality[i] != q {
					t.Fatalf("%d classes, device %d: replay gives mask %#x frac %v quality %v, stored %#x %v %v",
						classes, i, mask, frac, q, p.Mask[i], p.ClassFrac[i], p.Quality[i])
				}
			}
			if iid == 0 || iid == p.Len() {
				t.Errorf("%d classes: %d of %d devices IID, want a mix", classes, iid, p.Len())
			}
		}
	}
}

// TestPackedBucketFolding pins the >64-class fold: ImageNet's 1000
// classes map onto a 64-bucket mask.
func TestPackedBucketFolding(t *testing.T) {
	p := PackedPartition(3, NonIID100, 200, 1000, 500)
	if p.Buckets != 64 {
		t.Fatalf("Buckets = %d, want 64", p.Buckets)
	}
	for i := 0; i < p.Len(); i++ {
		if p.Mask[i] == 0 {
			t.Fatalf("device %d has an empty mask", i)
		}
	}
	if got, want := classBucket(999, 1000), 63; got != want {
		t.Errorf("classBucket(999, 1000) = %d, want %d", got, want)
	}
	if got := classBucket(5, 10); got != 5 {
		t.Errorf("classBucket identity below 64 classes broken: %d", got)
	}
}

func TestPackedMemoryBytes(t *testing.T) {
	const n = 1234
	p := PackedPartition(1, IdealIID, n, 10, 500)
	if got, want := p.MemoryBytes(), n*20; got != want {
		t.Errorf("MemoryBytes = %d, want %d (20 B/device)", got, want)
	}
}
