package main

import (
	"fmt"
	"slices"
)

// summary is a timing distribution: its sample count, median, and the
// highest tail percentile that still has at least ten samples beyond
// it (0 when there are fewer than 100 samples).
type summary struct {
	N       int
	P50     float64
	TailP   float64 // the tail percentile reported, e.g. 0.99
	TailVal float64
}

// summarize sorts a copy of xs and reads its median and tail.
func summarize(xs []float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	out := summary{N: len(s), P50: quantile(s, 0.5), TailP: tailPercentile(len(s))}
	if out.TailP > 0 {
		out.TailVal = quantile(s, out.TailP)
	}
	return out
}

func (s summary) String() string {
	if s.TailP == 0 {
		return fmt.Sprintf("p50 %.4f (n=%d)", s.P50, s.N)
	}
	return fmt.Sprintf("p50 %.4f, p%g %.4f (n=%d)", s.P50, 100*s.TailP, s.TailVal, s.N)
}

// median of an unsorted sample.
func median(xs []float64) float64 { return summarize(xs).P50 }

// quantile interpolates linearly between the closest ranks of a sorted
// sample (the "type 7" estimator); 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// tailPercentile is the highest of p99.9, p99 and p90 that leaves at
// least ten of n samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0
}
