package rng

import (
	"math"
	"testing"
)

func TestMixSpreadsEveryArgument(t *testing.T) {
	base := Mix(1, 2, 3)
	if Mix(1, 2, 3) != base {
		t.Fatal("Mix is not deterministic")
	}
	for _, other := range []uint64{Mix(2, 2, 3), Mix(1, 3, 3), Mix(1, 2, 4), Mix(0, 0, 0)} {
		if other == base {
			t.Fatalf("Mix collision with base %#x", base)
		}
	}
	// Adjacent keys — the (round, device) pattern the population engine
	// feeds it — must not produce adjacent seeds.
	if Mix(7, 1, 100)^Mix(7, 1, 101) < 1<<16 {
		t.Error("adjacent device indices yield near-identical seeds")
	}
}

// TestReseedableMatchesNew pins the interchange contract: Seed(x)
// yields exactly the sequence New(x) would, so keyed per-device
// streams reproduce what a dedicated stream per device would draw.
func TestReseedableMatchesNew(t *testing.T) {
	rs := NewReseedable()
	for _, seed := range []uint64{0, 1, 42, 1 << 60} {
		fresh := New(seed)
		keyed := rs.Seed(seed)
		for i := 0; i < 32; i++ {
			if f, k := fresh.Uint64(), keyed.Uint64(); f != k {
				t.Fatalf("seed %d draw %d: New=%#x Reseedable=%#x", seed, i, f, k)
			}
		}
		// Interleave a float draw to cover the non-integer path too.
		if f, k := fresh.Float64(), keyed.Float64(); f != k {
			t.Fatalf("seed %d: Float64 diverges: %v vs %v", seed, f, k)
		}
	}
}

// checkAscending fails unless out is strictly ascending and inside
// [0, n) — which also makes it distinct.
func checkAscending(t *testing.T, out []int32, n int) {
	t.Helper()
	for i, v := range out {
		if v < 0 || int(v) >= n {
			t.Fatalf("position %d: index %d out of [0, %d)", i, v, n)
		}
		if i > 0 && v <= out[i-1] {
			t.Fatalf("position %d: %d follows %d, want strictly ascending", i, v, out[i-1])
		}
	}
}

func TestSamplerDrawsDistinctInRange(t *testing.T) {
	const n, k = 100, 10
	sp := NewSampler(n)
	if got := sp.MemoryBytes(); got != 16 {
		t.Fatalf("MemoryBytes = %d, want 16 (two 64-bit words for 100 bits)", got)
	}
	out := make([]int32, k)
	s := New(7)
	for draw := 0; draw < 200; draw++ {
		sp.SampleInto(s, out)
		checkAscending(t, out, n)
	}
	// Word-boundary sizes: the last word is partial or exactly full.
	for _, n := range []int{1, 63, 64, 65, 128, 1000} {
		sp := NewSampler(n)
		for _, k := range []int{1, n / 2, n - 1, n} {
			out := make([]int32, k)
			sp.SampleInto(s, out)
			checkAscending(t, out, n)
		}
	}
}

// TestSamplerClearsSetBetweenDraws pins the clearing scan: one Sampler
// drawing twice from identically seeded streams must produce identical
// samples, which only holds if each draw starts from an empty set.
func TestSamplerClearsSetBetweenDraws(t *testing.T) {
	sp := NewSampler(500)
	a, b := make([]int32, 64), make([]int32, 64)
	rs := NewReseedable()
	sp.SampleInto(rs.Seed(99), a)
	sp.SampleInto(rs.Seed(99), b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("position %d: %d vs %d — membership set not cleared between draws", i, a[i], b[i])
		}
	}
	for w, word := range sp.set {
		if word != 0 {
			t.Fatalf("word %d = %#x after a draw, want 0", w, word)
		}
	}
}

// TestSamplerConsumesKDraws pins the stream contract: a k-draw takes
// exactly the k IntN variates of Floyd's loop, so whatever the engine
// draws from the stream next is unaffected by the pool's contents.
func TestSamplerConsumesKDraws(t *testing.T) {
	const n, k = 1000, 37
	drawn, replay := New(4), New(4)
	NewSampler(n).SampleInto(drawn, make([]int32, k))
	for j := n - k; j < n; j++ {
		replay.IntN(j + 1)
	}
	if drawn.Uint64() != replay.Uint64() {
		t.Fatal("SampleInto did not consume exactly k IntN draws")
	}
}

func TestSamplerFullDrawIsIdentity(t *testing.T) {
	const n = 64
	sp := NewSampler(n)
	out := make([]int32, n)
	sp.SampleInto(New(3), out)
	for i, v := range out {
		if int(v) != i {
			t.Fatalf("full draw position %d = %d, want the identity", i, v)
		}
	}
}

func TestSamplerEmptyDraw(t *testing.T) {
	drawn, fresh := New(8), New(8)
	NewSampler(10).SampleInto(drawn, nil)
	if drawn.Uint64() != fresh.Uint64() {
		t.Fatal("an empty draw consumed variates")
	}
}

// TestSamplerSubsetsUniform is the exact distribution check: at n = 6,
// k = 3 every one of the C(6, 3) = 20 subsets must be equally likely.
// Pearson's chi-square over 19 degrees of freedom has a 0.1% critical
// value of 43.8.
func TestSamplerSubsetsUniform(t *testing.T) {
	const n, k, draws = 6, 3, 200_000
	sp := NewSampler(n)
	out := make([]int32, k)
	s := New(13)
	counts := map[[k]int32]int{}
	for d := 0; d < draws; d++ {
		sp.SampleInto(s, out)
		counts[[k]int32(out)]++
	}
	if len(counts) != 20 {
		t.Fatalf("saw %d distinct subsets, want 20", len(counts))
	}
	want := float64(draws) / 20
	chi2 := 0.0
	for _, c := range counts {
		chi2 += (float64(c) - want) * (float64(c) - want) / want
	}
	if chi2 > 43.8 {
		t.Errorf("subset chi-square = %.1f over 19 dof, above the 0.1%% critical value 43.8", chi2)
	}
}

// TestSamplerMarginalsRoughlyUniform checks first-order marginals at the
// engine's scale (n = 10⁶, k = 4,096): Pearson's chi-square of the
// per-element inclusion counts over many draws, divided by its n-1
// degrees of freedom, concentrates at 1 - k/n — sampling without
// replacement has per-element variance p(1-p), not p — with a standard
// deviation near sqrt(2/n) ≈ 0.0014.
func TestSamplerMarginalsRoughlyUniform(t *testing.T) {
	const n, k, draws = 1_000_000, 4096, 2048
	if testing.Short() {
		t.Skip("1M-element marginal check skipped in -short")
	}
	sp := NewSampler(n)
	out := make([]int32, k)
	s := New(11)
	hits := make([]int32, n)
	for d := 0; d < draws; d++ {
		sp.SampleInto(s, out)
		for _, v := range out {
			hits[v]++
		}
	}
	want := float64(draws) * k / n // ≈ 8.4
	chi2 := 0.0
	for _, h := range hits {
		chi2 += (float64(h) - want) * (float64(h) - want) / want
	}
	perDof, expect := chi2/(n-1), 1-float64(k)/n
	if math.Abs(perDof-expect) > 0.01 {
		t.Errorf("marginal chi²/dof = %.4f, want %.4f ± 0.01", perDof, expect)
	}
}

func TestSamplerPanicsOnOversizedDraw(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleInto with k > n did not panic")
		}
	}()
	NewSampler(3).SampleInto(New(1), make([]int32, 4))
}

// TestSamplerAllocFree pins the steady-state draw at zero allocations:
// the set is sized once, at construction.
func TestSamplerAllocFree(t *testing.T) {
	sp := NewSampler(100_000)
	out := make([]int32, 512)
	s := New(2)
	if avg := testing.AllocsPerRun(50, func() { sp.SampleInto(s, out) }); avg != 0 {
		t.Errorf("SampleInto allocates %.1f objects per draw, want 0", avg)
	}
}
