// Package dbscan implements the DBSCAN density-based clustering
// algorithm. AutoFL (§4.1) uses DBSCAN to convert continuous state
// features — co-runner CPU utilization, memory usage, network
// bandwidth, data-class fraction — into the discrete buckets of its
// Q-learning state space (Table 1 of the paper).
//
// The package provides the general n-dimensional algorithm plus a
// one-dimensional convenience pipeline (Discretize) that turns a sample
// of scalar feature observations into ordered bucket boundaries.
package dbscan

import (
	"math"
	"sort"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Cluster runs DBSCAN over the given points with neighborhood radius
// eps and density threshold minPts. It returns one label per point:
// cluster ids are dense integers starting at 0, and outliers receive
// the Noise label. Distances are Euclidean.
func Cluster(points [][]float64, eps float64, minPts int) []int {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 || eps <= 0 || minPts <= 0 {
		return labels
	}

	visited := make([]bool, n)
	next := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		neighbors := regionQuery(points, i, eps)
		if len(neighbors) < minPts {
			continue // density too low; stays Noise unless adopted later
		}
		labels[i] = next
		// Expand the cluster with a classic seed-set sweep.
		queue := append([]int(nil), neighbors...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == Noise {
				labels[j] = next // border point adopted by this cluster
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			labels[j] = next
			jn := regionQuery(points, j, eps)
			if len(jn) >= minPts {
				queue = append(queue, jn...)
			}
		}
		next++
	}
	return labels
}

func regionQuery(points [][]float64, idx int, eps float64) []int {
	var out []int
	p := points[idx]
	for j, q := range points {
		if dist(p, q) <= eps {
			out = append(out, j)
		}
	}
	return out
}

func dist(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Cluster1D is a convenience wrapper over Cluster for scalar samples.
func Cluster1D(values []float64, eps float64, minPts int) []int {
	points := make([][]float64, len(values))
	for i, v := range values {
		points[i] = []float64{v}
	}
	return Cluster(points, eps, minPts)
}

// Discretize derives bucket boundaries from a sample of scalar feature
// observations: it clusters the sample with DBSCAN, then places one
// boundary at the midpoint between the extent of each pair of adjacent
// clusters. The returned boundaries are sorted ascending; a value v
// falls in bucket i where i is the number of boundaries <= v, so k
// clusters yield k buckets via k-1 boundaries.
//
// This is the offline calibration step AutoFL uses to build Table 1;
// the resulting boundaries feed core.Buckets.
func Discretize(values []float64, eps float64, minPts int) []float64 {
	labels := Cluster1D(values, eps, minPts)
	type extent struct{ lo, hi float64 }
	extents := map[int]*extent{}
	for i, lab := range labels {
		if lab == Noise {
			continue
		}
		e, ok := extents[lab]
		if !ok {
			extents[lab] = &extent{values[i], values[i]}
			continue
		}
		e.lo = math.Min(e.lo, values[i])
		e.hi = math.Max(e.hi, values[i])
	}
	ordered := make([]extent, 0, len(extents))
	for _, e := range extents {
		ordered = append(ordered, *e)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].lo < ordered[j].lo })

	var boundaries []float64
	for i := 1; i < len(ordered); i++ {
		boundaries = append(boundaries, (ordered[i-1].hi+ordered[i].lo)/2)
	}
	return boundaries
}

// NumBuckets returns the number of distinct buckets a boundary set
// induces: Bucket returns values in [0, len(boundaries)], so k
// boundaries yield k+1 buckets. Packed state encodings use it as the
// radix of each feature digit.
func NumBuckets(boundaries []float64) int { return len(boundaries) + 1 }

// Bucket returns the index of the bucket that v falls into given sorted
// ascending boundaries: the count of boundaries <= v. Boundary lists
// hold a handful of entries, so a linear scan beats a binary search;
// both give the same index on any sorted list, NaN v included.
func Bucket(v float64, boundaries []float64) int {
	// Find the insertion point, the first boundary >= v, as
	// sort.SearchFloat64s would ...
	idx := 0
	for idx < len(boundaries) && !(boundaries[idx] >= v) {
		idx++
	}
	// ... then place values equal to a boundary in the bucket above
	// it, matching the paper's ">=" bucket edges.
	for idx < len(boundaries) && boundaries[idx] == v {
		idx++
	}
	return idx
}
