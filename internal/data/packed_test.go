package data

import (
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"autofl/internal/rng"
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

// meanQuality averages the per-device quality — the packed analogue of
// MeanIIDQuality.
func meanQuality(p *Packed) float64 {
	total := 0.0
	for _, q := range p.Quality {
		total += float64(q)
	}
	return total / float64(p.Len())
}

// TestPackedNonIIDStatistics checks the packed realization against the
// sequential Partition's distribution: same scenario, same scale of
// mean quality and sparse per-device coverage. The two are independent
// realizations, so the comparison is statistical, not byte-wise.
func TestPackedNonIIDStatistics(t *testing.T) {
	const n, classes = 5000, 10
	p := PackedPartition(9, NonIID100, n, classes, 500)
	legacy := Partition(rng.New(9), NonIID100, n, classes, 500)

	pq, lq := meanQuality(p), MeanIIDQuality(legacy)
	if diff := pq - lq; diff < -0.05 || diff > 0.05 {
		t.Errorf("mean quality: packed %v vs legacy %v", pq, lq)
	}
	// Dirichlet(0.1) concentrates mass on few classes: every device
	// covers at least one class, and mean coverage sits well below full.
	totalBits := 0
	for i := 0; i < n; i++ {
		c := bits.OnesCount64(p.Mask[i])
		if c == 0 {
			t.Fatalf("device %d has an empty mask", i)
		}
		totalBits += c
		if p.Quality[i] <= 0 {
			t.Fatalf("device %d: non-positive quality %v (0 is the unset sentinel)", i, p.Quality[i])
		}
	}
	if mean := float64(totalBits) / n; mean > 0.8*classes {
		t.Errorf("mean class coverage %v of %d classes — not concentrated", mean, classes)
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

// TestDeviceDataQualityOverride pins the Quality field the packed
// candidate view feeds through DeviceData: set, it short-circuits
// IIDQuality; zero keeps the legacy proportions path.
func TestDeviceDataQualityOverride(t *testing.T) {
	d := DeviceData{Quality: 0.25}
	if got := d.IIDQuality(); got != 0.25 {
		t.Errorf("explicit quality: IIDQuality = %v, want 0.25", got)
	}
	iid := DeviceData{IID: true}
	if got := iid.IIDQuality(); got != 1 {
		t.Errorf("IID device: IIDQuality = %v, want 1", got)
	}
}
