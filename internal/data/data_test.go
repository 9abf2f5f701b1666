package data

import (
	"math"
	"testing"
	"testing/quick"

	"autofl/internal/rng"
)

func TestIdealIIDAllDevicesComplete(t *testing.T) {
	s := rng.New(1)
	devices := Partition(s, IdealIID, 50, 10, 300)
	if len(devices) != 50 {
		t.Fatalf("got %d devices, want 50", len(devices))
	}
	for i, d := range devices {
		if !d.IID {
			t.Errorf("device %d not IID under IdealIID", i)
		}
		if len(d.Classes) != 10 || d.ClassFraction != 1 {
			t.Errorf("device %d holds %d classes, want all 10", i, len(d.Classes))
		}
		if d.IIDQuality() != 1 {
			t.Errorf("device %d IID quality = %v, want 1", i, d.IIDQuality())
		}
	}
}

func TestNonIIDFractionRespected(t *testing.T) {
	s := rng.New(2)
	for _, sc := range []Scenario{NonIID50, NonIID75, NonIID100} {
		devices := Partition(s, sc, 200, 10, 300)
		nonIID := 0
		for _, d := range devices {
			if !d.IID {
				nonIID++
			}
		}
		want := int(200*sc.NonIIDFraction + 0.5)
		if nonIID != want {
			t.Errorf("%s: %d non-IID devices, want %d", sc.Name, nonIID, want)
		}
	}
}

func TestDirichletConcentratesClasses(t *testing.T) {
	// With alpha = 0.1 and 10 classes, non-IID devices should hold
	// only a few classes each on average — far fewer than all 10.
	s := rng.New(3)
	devices := Partition(s, NonIID100, 200, 10, 300)
	totalClasses := 0.0
	for _, d := range devices {
		if len(d.Classes) == 0 {
			t.Fatal("device with zero classes")
		}
		totalClasses += float64(len(d.Classes))
	}
	mean := totalClasses / 200
	if mean > 5 {
		t.Errorf("mean classes per non-IID device = %.2f, want strongly concentrated (< 5)", mean)
	}
	if mean < 1 {
		t.Errorf("mean classes per device = %.2f, want >= 1", mean)
	}
}

func TestIIDQualityOrdering(t *testing.T) {
	s := rng.New(4)
	qualities := make([]float64, 0, 4)
	for _, sc := range Scenarios() {
		devices := Partition(s, sc, 200, 10, 300)
		qualities = append(qualities, MeanIIDQuality(devices))
	}
	for i := 1; i < len(qualities); i++ {
		if qualities[i] >= qualities[i-1] {
			t.Errorf("mean IID quality should fall with heterogeneity: %v", qualities)
		}
	}
}

func TestIIDQualityConcentrationSensitive(t *testing.T) {
	// A device with near-uniform proportions over its classes scores
	// higher than one dominated by a single class, even with equal
	// class counts.
	uniform := DeviceData{
		Proportions:   []float64{0.25, 0.25, 0.25, 0.25},
		Classes:       []int{0, 1, 2, 3},
		ClassFraction: 1,
	}
	skewed := DeviceData{
		Proportions:   []float64{0.97, 0.01, 0.01, 0.01},
		Classes:       []int{0, 1, 2, 3},
		ClassFraction: 1,
	}
	if uniform.IIDQuality() <= skewed.IIDQuality() {
		t.Errorf("uniform quality %v should beat skewed %v", uniform.IIDQuality(), skewed.IIDQuality())
	}
	if q := uniform.IIDQuality(); math.Abs(q-1) > 1e-9 {
		t.Errorf("uniform over all classes should score 1, got %v", q)
	}
}

func TestIIDQualityEdgeCases(t *testing.T) {
	d := DeviceData{IID: true}
	if d.IIDQuality() != 1 {
		t.Error("IID device must score 1")
	}
	d = DeviceData{ClassFraction: 0.3}
	if d.IIDQuality() != 0.3 {
		t.Error("missing proportions should fall back to class fraction")
	}
	d = DeviceData{Proportions: []float64{0, 0}}
	if d.IIDQuality() != 0 {
		t.Error("all-zero proportions should score 0")
	}
}

func TestSampleCountsVaryAroundMean(t *testing.T) {
	s := rng.New(5)
	devices := Partition(s, IdealIID, 500, 10, 300)
	lo, hi, total := math.MaxInt, 0, 0
	for _, d := range devices {
		if d.Samples < lo {
			lo = d.Samples
		}
		if d.Samples > hi {
			hi = d.Samples
		}
		total += d.Samples
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
	a := Partition(rng.New(7), NonIID75, 100, 10, 300)
	b := Partition(rng.New(7), NonIID75, 100, 10, 300)
	for i := range a {
		if a[i].Samples != b[i].Samples || a[i].IID != b[i].IID || len(a[i].Classes) != len(b[i].Classes) {
			t.Fatalf("partition not deterministic at device %d", i)
		}
	}
}

func TestPartitionEmpty(t *testing.T) {
	if got := Partition(rng.New(1), IdealIID, 0, 10, 300); got != nil {
		t.Errorf("Partition with n=0 = %v, want nil", got)
	}
}

func TestMeanIIDQualityEmpty(t *testing.T) {
	if MeanIIDQuality(nil) != 0 {
		t.Error("MeanIIDQuality(nil) should be 0")
	}
}

// Property: every partition yields devices whose class fraction is in
// (0, 1], whose quality is in [0, 1], and whose classes are valid ids.
func TestPartitionInvariantsProperty(t *testing.T) {
	s := rng.New(11)
	f := func(fracRaw, classRaw uint8) bool {
		frac := float64(fracRaw) / 255
		classes := int(classRaw)%20 + 2
		devices := Partition(s, Scenario{NonIIDFraction: frac}, 40, classes, 100)
		for _, d := range devices {
			if d.ClassFraction <= 0 || d.ClassFraction > 1 {
				return false
			}
			q := d.IIDQuality()
			if q < 0 || q > 1 {
				return false
			}
			for _, c := range d.Classes {
				if c < 0 || c >= classes {
					return false
				}
			}
			if d.Samples < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
