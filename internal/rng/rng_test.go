package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestForkDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	fa, fb := a.Fork(), b.Fork()
	for i := 0; i < 100; i++ {
		if fa.Float64() != fb.Float64() {
			t.Fatalf("forked streams diverged at draw %d", i)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(7)
	f := a.Fork()
	// Drawing from the parent must not affect the child's sequence
	// relative to an identical run that does not touch the parent.
	b := New(7)
	g := b.Fork()
	_ = b.Float64() // extra parent draw after forking
	for i := 0; i < 50; i++ {
		if f.Float64() != g.Float64() {
			t.Fatalf("child stream affected by parent draws at %d", i)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(3)
	const n = 200000
	mean, m2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(5, 2)
		mean += v
		m2 += v * v
	}
	mean /= n
	variance := m2/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("Normal mean = %.4f, want ~5", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("Normal variance = %.4f, want ~4", variance)
	}
}

func TestNormalZeroSigma(t *testing.T) {
	s := New(3)
	if got := s.Normal(1.5, 0); got != 1.5 {
		t.Errorf("Normal(1.5, 0) = %v, want 1.5", got)
	}
	if got := s.Normal(1.5, -1); got != 1.5 {
		t.Errorf("Normal(1.5, -1) = %v, want 1.5", got)
	}
}

func TestClampedNormalBounds(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.ClampedNormal(50, 40, 10, 90)
		if v < 10 || v > 90 {
			t.Fatalf("ClampedNormal out of bounds: %v", v)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	s := New(11)
	for _, shape := range []float64{0.1, 0.5, 1, 2.5, 9} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += s.Gamma(shape)
		}
		mean := sum / n
		// Gamma(shape, 1) has mean = shape.
		if math.Abs(mean-shape)/shape > 0.05 {
			t.Errorf("Gamma(%v) mean = %.4f, want ~%v", shape, mean, shape)
		}
	}
}

func TestGammaNonPositiveShape(t *testing.T) {
	s := New(11)
	if got := s.Gamma(0); got != 0 {
		t.Errorf("Gamma(0) = %v, want 0", got)
	}
	if got := s.Gamma(-1); got != 0 {
		t.Errorf("Gamma(-1) = %v, want 0", got)
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	s := New(13)
	for i := 0; i < 100; i++ {
		p := make([]float64, 10)
		s.Dirichlet(0.1, p)
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				t.Fatalf("negative Dirichlet component %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet sum = %v, want 1", sum)
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	s := New(17)
	// With alpha = 0.1 most draws concentrate mass in very few
	// components; with alpha = 100 the mass is near-uniform. Compare
	// the average maximum component.
	avgMax := func(alpha float64) float64 {
		total := 0.0
		for i := 0; i < 500; i++ {
			p := make([]float64, 10)
			s.Dirichlet(alpha, p)
			mx := 0.0
			for _, v := range p {
				mx = math.Max(mx, v)
			}
			total += mx
		}
		return total / 500
	}
	sparse, dense := avgMax(0.1), avgMax(100)
	if sparse < 2*dense {
		t.Errorf("alpha=0.1 max component %.3f not clearly larger than alpha=100 %.3f", sparse, dense)
	}
}

func TestDirichletEdgeCases(t *testing.T) {
	s := New(19)
	s.Dirichlet(0.1, nil) // n = 0 draws nothing
	p := make([]float64, 1)
	s.Dirichlet(0.1, p)
	if len(p) != 1 || math.Abs(p[0]-1) > 1e-9 {
		t.Errorf("Dirichlet with n=1 = %v, want [1]", p)
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	s := New(23)
	counts := make([]int, 3)
	weights := []float64{1, 0, 3}
	for i := 0; i < 40000; i++ {
		counts[s.Categorical(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight component drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("weight-3 / weight-1 ratio = %.3f, want ~3", ratio)
	}
}

func TestCategoricalAllZeroWeightsUniform(t *testing.T) {
	s := New(29)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[s.Categorical([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("component %d drawn %d/4000 times, want ~1000", i, c)
		}
	}
}

func TestSample(t *testing.T) {
	s := New(31)
	got := s.Sample(10, 4)
	if len(got) != 4 {
		t.Fatalf("Sample(10,4) returned %d items", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("sample value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample value %d", v)
		}
		seen[v] = true
	}
	if len(s.Sample(3, 10)) != 3 {
		t.Error("Sample with k > n should return n items")
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(37)
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	for i := 0; i < 10000; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	if hits < 2200 || hits > 2800 {
		t.Errorf("Bool(0.25) hit %d/10000 times", hits)
	}
}

// Property: Dirichlet draws always form a probability vector regardless
// of concentration and dimension.
func TestDirichletProperty(t *testing.T) {
	s := New(41)
	f := func(alphaRaw uint8, nRaw uint8) bool {
		alpha := 0.05 + float64(alphaRaw)/32.0
		n := 1 + int(nRaw)%32
		p := make([]float64, n)
		s.Dirichlet(alpha, p)
		if len(p) != n {
			return false
		}
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Categorical never returns an out-of-range index and never
// selects a strictly-zero-weight component when positive weights exist.
func TestCategoricalProperty(t *testing.T) {
	s := New(43)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		anyPositive := false
		for i, r := range raw {
			weights[i] = float64(r % 8)
			if weights[i] > 0 {
				anyPositive = true
			}
		}
		idx := s.Categorical(weights)
		if idx < 0 || idx >= len(weights) {
			return false
		}
		if anyPositive && weights[idx] == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	// PermInto must consume exactly the same variates as Perm, so code
	// switching between them for allocation reasons cannot perturb
	// reproducibility-sensitive draw sequences.
	for _, n := range []int{0, 1, 2, 5, 40, 200} {
		a, b := New(uint64(n)+101), New(uint64(n)+101)
		want := a.Perm(n)
		buf := make([]int, n)
		b.PermInto(buf)
		for i := range want {
			if want[i] != buf[i] {
				t.Fatalf("n=%d: PermInto diverged from Perm at %d: %v vs %v", n, i, buf, want)
			}
		}
		// And the streams must be in identical states afterwards.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: stream states diverged after Perm vs PermInto", n)
		}
	}
}

func TestPermIntoAllocFree(t *testing.T) {
	s := New(77)
	buf := make([]int, 64)
	if avg := testing.AllocsPerRun(100, func() { s.PermInto(buf) }); avg != 0 {
		t.Errorf("PermInto allocated %.1f times per run, want 0", avg)
	}
}
