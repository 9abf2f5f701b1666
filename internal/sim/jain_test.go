package sim

import (
	"math"
	"testing"

	"autofl/internal/rng"
)

// jainDirect is the reference form of Jain's index over an allocation,
// computed in one direct loop: (Σx)²/(n·Σx²), 0 for an empty or
// all-zero allocation.
func jainDirect(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if len(xs) == 0 || sumSq <= 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// jainOf runs the engine's moment form over an allocation.
func jainOf(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	return jainFromMoments(sum, sumSq, len(xs))
}

func TestJainFairnessUniform(t *testing.T) {
	for _, n := range []int{1, 2, 10, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 7
		}
		if got := jainOf(xs); math.Abs(got-1) > 1e-12 {
			t.Errorf("uniform n=%d: Jain = %g, want 1", n, got)
		}
	}
}

func TestJainFairnessSingleParticipant(t *testing.T) {
	for _, n := range []int{1, 4, 256} {
		xs := make([]float64, n)
		xs[n/2] = 42
		want := 1 / float64(n)
		if got := jainOf(xs); math.Abs(got-want) > 1e-12 {
			t.Errorf("single participant n=%d: Jain = %g, want %g", n, got, want)
		}
	}
}

func TestJainFairnessDegenerate(t *testing.T) {
	if got := jainOf(nil); got != 0 {
		t.Errorf("Jain(nil) = %g, want 0", got)
	}
	if got := jainOf([]float64{0, 0, 0}); got != 0 {
		t.Errorf("Jain(zeros) = %g, want 0", got)
	}
}

// inJainBounds reports whether j lies in [1/n, 1] to 1e-12.
func inJainBounds(j float64, n int) bool {
	return j >= 1/float64(n)-1e-12 && j <= 1+1e-12
}

// TestJainFairnessBounds: random allocations stay within [1/n, 1] (0
// before any participation), and the engine's incremental moments —
// folded by battState.participate as integer count bumps (sum += 1,
// sumSq += 2c+1) — agree with the direct loop exactly.
func TestJainFairnessBounds(t *testing.T) {
	s := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		n := 1 + s.IntN(300)
		b := &battState{partCount: make([]uint32, n)}
		events := s.IntN(5 * n)
		for e := 0; e < events; e++ {
			b.participate(s.IntN(n))
		}
		counts := make([]float64, n)
		for i, c := range b.partCount {
			counts[i] = float64(c)
		}
		direct := jainDirect(counts)
		if events == 0 {
			if direct != 0 || b.jain() != 0 {
				t.Fatalf("no events: Jain = %g (engine %g), want 0", direct, b.jain())
			}
			continue
		}
		if !inJainBounds(direct, n) {
			t.Fatalf("n=%d events=%d: Jain = %g outside [%g, 1]", n, events, direct, 1/float64(n))
		}
		if inc := b.jain(); inc != direct {
			t.Fatalf("incremental moments diverge: %g vs %g", inc, direct)
		}
	}
}

// TestJainMomentsMatchDirectLoop: on a fixed set of edge allocations
// (empty, all-zero, single, uniform, tiny and huge magnitudes) the
// moment form agrees with the direct loop to 1e-12 and stays in bounds.
func TestJainMomentsMatchDirectLoop(t *testing.T) {
	cases := [][]float64{
		{},
		{0, 0, 0},
		{1},
		{1, 1, 1, 1},
		{5, 0, 0, 0},
		{3, 1, 4, 1, 5, 9, 2, 6},
		{1e-9, 2e-9, 3e-9},
		{1e12, 7, 0.25},
	}
	for _, xs := range cases {
		got, want := jainOf(xs), jainDirect(xs)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("xs %v: moments form %v vs direct loop %v", xs, got, want)
		}
		if want != 0 && !inJainBounds(got, len(xs)) {
			t.Errorf("xs %v: Jain = %g outside [%g, 1]", xs, got, 1/float64(len(xs)))
		}
	}
}

// TestJainFairnessMoreEvenIsFairer: shifting a participation from the
// most-loaded device to the least-loaded never lowers the index.
func TestJainFairnessMoreEvenIsFairer(t *testing.T) {
	xs := []float64{10, 3, 1, 0}
	prev := jainOf(xs)
	for xs[0] > xs[3]+1 {
		xs[0]--
		xs[3]++
		next := jainOf(xs)
		if next < prev-1e-12 {
			t.Fatalf("evening the allocation lowered Jain: %g -> %g at %v", prev, next, xs)
		}
		prev = next
	}
}
