package data

import (
	"math"
	"math/bits"
	"reflect"
	"testing"
	"testing/quick"
)

// generators lists both partition constructors.
var generators = []func(uint64, Scenario, int, int, int) *Packed{PackedPartition, ExactPackedPartition}

// nonIID counts the devices whose replayed proportions are non-nil.
func nonIID(p *Packed) int {
	count := 0
	for i := 0; i < p.Len(); i++ {
		if p.Proportions(i) != nil {
			count++
		}
	}
	return count
}

func TestIdealIIDAllDevicesComplete(t *testing.T) {
	for _, gen := range generators {
		p := gen(1, IdealIID, 50, 10, 300)
		if p.Len() != 50 {
			t.Fatalf("got %d devices, want 50", p.Len())
		}
		for i := 0; i < p.Len(); i++ {
			if p.Mask[i] != 1<<10-1 || p.ClassFrac[i] != 1 {
				t.Errorf("device %d mask %#x frac %v, want all 10 classes", i, p.Mask[i], p.ClassFrac[i])
			}
			if p.Quality[i] != 1 {
				t.Errorf("device %d IID quality = %v, want 1", i, p.Quality[i])
			}
			if props := p.Proportions(i); props != nil {
				t.Errorf("device %d: IID device has proportions %v", i, props)
			}
		}
	}
}

func TestNonIIDFractionRespected(t *testing.T) {
	for _, sc := range []Scenario{NonIID50, NonIID75, NonIID100} {
		got := nonIID(ExactPackedPartition(2, sc, 200, 10, 300))
		if want := int(200*sc.NonIIDFraction + 0.5); got != want {
			t.Errorf("%s: %d non-IID devices, want %d", sc.Name, got, want)
		}
	}
}

func TestDirichletConcentratesClasses(t *testing.T) {
	// With alpha = 0.1 and 10 classes, non-IID devices should hold
	// only a few classes each on average — far fewer than all 10.
	p := ExactPackedPartition(3, NonIID100, 200, 10, 300)
	totalClasses := 0.0
	for i := 0; i < p.Len(); i++ {
		if p.Mask[i] == 0 {
			t.Fatal("device with zero classes")
		}
		totalClasses += float64(p.ClassFrac[i]) * 10
	}
	mean := totalClasses / 200
	if mean > 5 {
		t.Errorf("mean classes per non-IID device = %.2f, want strongly concentrated (< 5)", mean)
	}
	if mean < 1 {
		t.Errorf("mean classes per device = %.2f, want >= 1", mean)
	}
}

func TestQualityOrdering(t *testing.T) {
	qualities := make([]float64, 0, 4)
	for _, sc := range Scenarios() {
		qualities = append(qualities, meanQuality(ExactPackedPartition(4, sc, 200, 10, 300)))
	}
	for i := 1; i < len(qualities); i++ {
		if qualities[i] >= qualities[i-1] {
			t.Errorf("mean IID quality should fall with heterogeneity: %v", qualities)
		}
	}
}

// TestQualityConcentrationSensitive checks that quality scores how
// concentrated a device's proportions are, not only how many classes
// it holds: among non-IID devices holding the same number of classes,
// the scores differ and rank as the inverse Simpson index of the
// replayed proportions does.
func TestQualityConcentrationSensitive(t *testing.T) {
	p := PackedPartition(6, NonIID100, 400, 10, 300)
	type scored struct {
		q       float32
		simpson float64
	}
	byFrac := map[float32][]scored{}
	for i := 0; i < p.Len(); i++ {
		sumSq := 0.0
		for _, pr := range p.Proportions(i) {
			sumSq += pr * pr
		}
		byFrac[p.ClassFrac[i]] = append(byFrac[p.ClassFrac[i]], scored{p.Quality[i], 1 / sumSq})
	}
	spread := false
	for frac, group := range byFrac {
		for _, a := range group {
			for _, b := range group {
				if a.q != b.q {
					spread = true
				}
				if a.simpson < b.simpson && a.q > b.q {
					t.Fatalf("class fraction %v: quality %v above %v but inverse Simpson %v below %v",
						frac, a.q, b.q, a.simpson, b.simpson)
				}
			}
		}
	}
	if !spread {
		t.Error("quality is constant within every class-count group: it ignores concentration")
	}
}

// TestQualityEdgeCases covers the draws at the edges of the
// reduction: a single-class workload, where every device holds the
// one class with full quality, and one-sample devices, where no class
// reaches one sample and the degenerate branch keeps the largest.
func TestQualityEdgeCases(t *testing.T) {
	one := PackedPartition(8, NonIID100, 50, 1, 300)
	for i := 0; i < one.Len(); i++ {
		if one.Mask[i] != 1 || one.ClassFrac[i] != 1 || one.Quality[i] != 1 {
			t.Fatalf("single-class device %d: mask %#x frac %v quality %v, want 1, 1, 1",
				i, one.Mask[i], one.ClassFrac[i], one.Quality[i])
		}
		if props := one.Proportions(i); len(props) != 1 || props[0] != 1 {
			t.Fatalf("single-class device %d: proportions %v, want [1]", i, props)
		}
	}
	tiny := PackedPartition(8, NonIID100, 200, 10, 1)
	for i := 0; i < tiny.Len(); i++ {
		if tiny.Samples[i] != 1 {
			t.Fatalf("device %d: %d samples at mean 1, want 1", i, tiny.Samples[i])
		}
		props := tiny.Proportions(i)
		best := 0
		for c, pr := range props {
			if pr > props[best] {
				best = c
			}
		}
		if tiny.Mask[i] != 1<<best || tiny.ClassFrac[i] != 0.1 {
			t.Fatalf("device %d: mask %#x frac %v, want the largest class %d alone",
				i, tiny.Mask[i], tiny.ClassFrac[i], best)
		}
	}
}

func TestSampleCountsVaryAroundMean(t *testing.T) {
	p := PackedPartition(5, IdealIID, 500, 10, 300)
	lo, hi, total := int32(math.MaxInt32), int32(0), 0
	for _, s := range p.Samples {
		lo, hi = min(lo, s), max(hi, s)
		total += int(s)
	}
	mean := float64(total) / 500
	if mean < 270 || mean > 330 {
		t.Errorf("mean samples = %.1f, want ~300", mean)
	}
	if lo < 210 || hi > 390 {
		t.Errorf("sample range [%d, %d] outside the ±30%% clamp", lo, hi)
	}
	if lo == hi {
		t.Error("sample counts should vary across devices")
	}
}

func TestPartitionDeterminism(t *testing.T) {
	a := ExactPackedPartition(7, NonIID75, 100, 10, 300)
	b := ExactPackedPartition(7, NonIID75, 100, 10, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("partition not deterministic")
	}
	for i := 0; i < a.Len(); i++ {
		if !reflect.DeepEqual(a.Proportions(i), b.Proportions(i)) {
			t.Fatalf("proportions not deterministic at device %d", i)
		}
	}
}

func TestPartitionEmpty(t *testing.T) {
	for _, gen := range generators {
		if p := gen(1, NonIID50, 0, 10, 300); p.Len() != 0 || p.MemoryBytes() != 0 {
			t.Errorf("partition with n=0 has %d devices, %d bytes", p.Len(), p.MemoryBytes())
		}
	}
}

// Property: every partition, at up to 150 classes (so past the 64-bit
// mask's fold), yields devices whose class fraction is in (0, 1],
// whose quality is in [1/classes, 1], whose mask is non-empty and
// within the bucket range, and whose proportions, when non-IID, span
// every class and sum to 1.
func TestPartitionInvariantsProperty(t *testing.T) {
	seed := uint64(11)
	f := func(fracRaw, classRaw uint8) bool {
		seed++
		frac := float64(fracRaw) / 255
		classes := int(classRaw)%150 + 2
		p := ExactPackedPartition(seed, Scenario{NonIIDFraction: frac}, 40, classes, 100)
		full := fullMask(p.Buckets)
		for i := 0; i < p.Len(); i++ {
			if p.ClassFrac[i] <= 0 || p.ClassFrac[i] > 1 {
				return false
			}
			q := float64(p.Quality[i])
			if q < (1-1e-6)/float64(classes) || q > 1 {
				return false
			}
			if p.Mask[i] == 0 || p.Mask[i]&^full != 0 || bits.OnesCount64(p.Mask[i]) > int(p.ClassFrac[i]*float32(classes)+0.5) {
				return false
			}
			if p.Samples[i] < 1 {
				return false
			}
			if props := p.Proportions(i); props != nil {
				sum := 0.0
				for _, pr := range props {
					sum += pr
				}
				if len(props) != classes || math.Abs(sum-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
