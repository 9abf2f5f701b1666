package main

import (
	"math"
	"testing"
)

func TestSummarizeReportsCountMedianAndTail(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n             int
		p50, tailP    float64
		tailVal       float64
		summaryString string
	}{
		{0, 0, 0, 0, "p50 0.0000 (n=0)"},
		{1, 1, 0, 0, "p50 1.0000 (n=1)"},
		{99, 50, 0, 0, "p50 50.0000 (n=99)"},
		{100, 50.5, 0.9, 90.1, "p50 50.5000, p90 90.1000 (n=100)"},
		{1000, 500.5, 0.99, 990.01, "p50 500.5000, p99 990.0100 (n=1000)"},
		{10000, 5000.5, 0.999, 9990.001, "p50 5000.5000, p99.9 9990.0010 (n=10000)"},
	}
	for _, c := range cases {
		s := summarize(ramp(c.n))
		if s.N != c.n || !near(s.P50, c.p50) || s.TailP != c.tailP || !near(s.TailVal, c.tailVal) {
			t.Errorf("n=%d: got %+v, want p50 %v, p%v %v", c.n, s, c.p50, 100*c.tailP, c.tailVal)
		}
		if got := s.String(); got != c.summaryString {
			t.Errorf("n=%d: String() = %q, want %q", c.n, got, c.summaryString)
		}
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
