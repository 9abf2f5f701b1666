package dbscan

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"autofl/internal/rng"
)

func TestClusterTwoBlobs(t *testing.T) {
	var points [][]float64
	s := rng.New(1)
	for i := 0; i < 50; i++ {
		points = append(points, []float64{s.Normal(0, 0.1), s.Normal(0, 0.1)})
	}
	for i := 0; i < 50; i++ {
		points = append(points, []float64{s.Normal(5, 0.1), s.Normal(5, 0.1)})
	}
	labels := Cluster(points, 0.5, 4)
	if labels[0] == Noise || labels[50] == Noise {
		t.Fatal("blob core points labeled as noise")
	}
	if labels[0] == labels[50] {
		t.Fatal("distinct blobs merged into one cluster")
	}
	for i := 1; i < 50; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("point %d split from its blob (label %d vs %d)", i, labels[i], labels[0])
		}
	}
	for i := 51; i < 100; i++ {
		if labels[i] != labels[50] {
			t.Fatalf("point %d split from its blob", i)
		}
	}
}

func TestClusterNoise(t *testing.T) {
	points := [][]float64{{0}, {0.1}, {0.2}, {0.15}, {0.05}, {100}}
	labels := Cluster(points, 0.5, 3)
	if labels[5] != Noise {
		t.Errorf("isolated point labeled %d, want Noise", labels[5])
	}
	for i := 0; i < 5; i++ {
		if labels[i] == Noise {
			t.Errorf("dense point %d labeled Noise", i)
		}
	}
}

func TestClusterEmptyAndDegenerate(t *testing.T) {
	if got := Cluster(nil, 1, 2); len(got) != 0 {
		t.Errorf("Cluster(nil) returned %v", got)
	}
	labels := Cluster([][]float64{{1}, {2}}, 0, 2)
	for _, l := range labels {
		if l != Noise {
			t.Error("eps=0 should label everything Noise")
		}
	}
	labels = Cluster([][]float64{{1}, {2}}, 1, 0)
	for _, l := range labels {
		if l != Noise {
			t.Error("minPts=0 should label everything Noise")
		}
	}
}

func TestClusterLabelsAreDense(t *testing.T) {
	var points [][]float64
	s := rng.New(2)
	for c := 0; c < 4; c++ {
		center := float64(c * 10)
		for i := 0; i < 20; i++ {
			points = append(points, []float64{s.Normal(center, 0.2)})
		}
	}
	labels := Cluster(points, 1.0, 3)
	seen := map[int]bool{}
	maxLabel := -1
	for _, l := range labels {
		if l == Noise {
			continue
		}
		seen[l] = true
		if l > maxLabel {
			maxLabel = l
		}
	}
	if len(seen) != 4 {
		t.Fatalf("found %d clusters, want 4", len(seen))
	}
	for i := 0; i <= maxLabel; i++ {
		if !seen[i] {
			t.Errorf("label %d skipped; labels are not dense", i)
		}
	}
}

func TestDiscretizeRecoversBuckets(t *testing.T) {
	// Synthetic co-runner CPU-utilization observations in the field
	// cluster around "none" (0%), "small" (~15%), "medium" (~50%) and
	// "large" (~90%) — the Table 1 shape. Discretize should recover
	// three boundaries separating them.
	s := rng.New(3)
	var values []float64
	for i := 0; i < 60; i++ {
		values = append(values, 0)
	}
	for i := 0; i < 60; i++ {
		values = append(values, s.ClampedNormal(0.15, 0.03, 0.02, 0.24))
	}
	for i := 0; i < 60; i++ {
		values = append(values, s.ClampedNormal(0.5, 0.05, 0.3, 0.7))
	}
	for i := 0; i < 60; i++ {
		values = append(values, s.ClampedNormal(0.9, 0.03, 0.8, 1.0))
	}
	b := Discretize(values, 0.02, 5)
	if len(b) != 3 {
		t.Fatalf("Discretize found %d boundaries (%v), want 3", len(b), b)
	}
	if !(b[0] > 0 && b[0] < 0.1) {
		t.Errorf("first boundary %v not between none and small", b[0])
	}
	if !(b[1] > 0.2 && b[1] < 0.4) {
		t.Errorf("second boundary %v not between small and medium", b[1])
	}
	if !(b[2] > 0.65 && b[2] < 0.85) {
		t.Errorf("third boundary %v not between medium and large", b[2])
	}
}

func TestBucket(t *testing.T) {
	boundaries := []float64{10, 20, 30}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {9.99, 0}, {10, 1}, {15, 1}, {20, 2}, {25, 2}, {30, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := Bucket(c.v, boundaries); got != c.want {
			t.Errorf("Bucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := Bucket(5, nil); got != 0 {
		t.Errorf("Bucket with no boundaries = %d, want 0", got)
	}
}

// Property: every point is either Noise or carries a label in [0, k)
// where k is the number of clusters, and label vectors have one entry
// per point.
func TestClusterProperty(t *testing.T) {
	s := rng.New(5)
	f := func(nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{s.Float64() * 10}
		}
		labels := Cluster(points, 0.5, 3)
		if len(labels) != n {
			return false
		}
		max := -1
		for _, l := range labels {
			if l < Noise {
				return false
			}
			if l > max {
				max = l
			}
		}
		for want := 0; want <= max; want++ {
			found := false
			for _, l := range labels {
				if l == want {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Bucket is monotone — larger values never land in smaller
// buckets.
func TestBucketMonotoneProperty(t *testing.T) {
	boundaries := []float64{0.25, 0.5, 0.75}
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return Bucket(a, boundaries) <= Bucket(b, boundaries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// bucketReference is Bucket's former binary-search form.
func bucketReference(v float64, boundaries []float64) int {
	idx := sort.SearchFloat64s(boundaries, v)
	for idx < len(boundaries) && boundaries[idx] == v {
		idx++
	}
	return idx
}

// Property: the linear-scan Bucket agrees with the binary-search
// reference on random sorted boundary lists of length 0–8, probed at
// the boundaries themselves, their float neighbours, ±Inf and NaN.
// Boundaries come from a small pool, so repeated boundaries are common.
func TestBucketMatchesBinarySearch(t *testing.T) {
	s := rng.New(13)
	pool := []float64{-3, -1, -0.5, 0, 0.25, 0.5, 1, 2, 10, math.Inf(-1), math.Inf(1)}
	for trial := 0; trial < 2000; trial++ {
		boundaries := make([]float64, s.IntN(9))
		for i := range boundaries {
			if s.Bool(0.5) {
				boundaries[i] = pool[s.IntN(len(pool))]
			} else {
				boundaries[i] = 20*s.Float64() - 10
			}
		}
		sort.Float64s(boundaries)

		probes := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1)}
		for _, b := range boundaries {
			probes = append(probes, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
		}
		for _, v := range probes {
			if got, want := Bucket(v, boundaries), bucketReference(v, boundaries); got != want {
				t.Fatalf("Bucket(%v, %v) = %d, binary search gives %d", v, boundaries, got, want)
			}
		}
	}
}

func TestNumBuckets(t *testing.T) {
	cases := []struct {
		boundaries []float64
		want       int
	}{
		{nil, 1},
		{[]float64{0.5}, 2},
		{[]float64{0.25, 0.75}, 3},
		{[]float64{1, 10, 20, 40}, 5},
	}
	for _, c := range cases {
		if got := NumBuckets(c.boundaries); got != c.want {
			t.Errorf("NumBuckets(%v) = %d, want %d", c.boundaries, got, c.want)
		}
		// Consistency with Bucket: every reachable bucket index is
		// strictly below NumBuckets.
		for _, v := range []float64{-1, 0, 0.3, 5, 100} {
			if b := Bucket(v, c.boundaries); b >= NumBuckets(c.boundaries) {
				t.Errorf("Bucket(%v, %v) = %d >= NumBuckets %d", v, c.boundaries, b, NumBuckets(c.boundaries))
			}
		}
	}
}
