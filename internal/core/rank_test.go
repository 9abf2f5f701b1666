package core

import (
	"slices"
	"testing"

	"autofl/internal/rng"
)

// sortRankedReference is the controller's former ranking: a stable
// insertion sort of every device, descending by (value, tie). The
// top-K buffer must reproduce its first K entries exactly.
func sortRankedReference(r []ranked) {
	less := func(a, b ranked) bool {
		if a.value != b.value {
			return a.value > b.value
		}
		return a.tie > b.tie
	}
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && less(r[j], r[j-1]); j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}

// TestInsertTopKMatchesStableSort feeds random rankings through
// insertTopK and compares the buffer with the first K entries of the
// reference sort. Values and tie priorities are drawn from small pools
// so equal values and equal (value, tie) pairs are common; only the
// device index tells such entries apart, and it must come out in
// arrival order.
func TestInsertTopKMatchesStableSort(t *testing.T) {
	s := rng.New(41)
	for _, n := range []int{0, 1, 2, 3, 7, 20, 200, 4096} {
		// The reference sort is quadratic: few trials at full size.
		trials := 40
		if n > 1000 {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			checkTopK(t, s, n)
		}
	}
}

// checkTopK draws one ranking of n entries and checks every buffer
// size against the reference sort.
func checkTopK(t *testing.T, s *rng.Stream, n int) {
	t.Helper()
	values := 1 + s.IntN(6)
	ties := 1 + s.IntN(4)
	in := make([]ranked, n)
	for i := range in {
		in[i] = ranked{
			idx:    i,
			value:  float64(s.IntN(values)) - 2.5,
			tie:    float64(s.IntN(ties)) / 4,
			action: int8(s.IntN(len(dvfsLevels) * 2)),
		}
	}
	ref := append([]ranked(nil), in...)
	sortRankedReference(ref)

	for _, k := range []int{0, 1, n / 2, n, n + 1, n + 17, 20} {
		top := make([]ranked, 0, k)
		for _, r := range in {
			top = insertTopK(top, k, r)
		}
		if want := ref[:min(k, n)]; !slices.Equal(top, want) {
			t.Fatalf("n=%d k=%d values=%d ties=%d: top-K differs from the stable sort\n got %v\nwant %v",
				n, k, values, ties, top, want)
		}
		if cap(top) != k {
			t.Fatalf("n=%d k=%d: buffer grew to cap %d", n, k, cap(top))
		}
	}
}
