package interference

import (
	"testing"
	"testing/quick"

	"autofl/internal/rng"
)

// heavy is an environment where most devices see a co-runner.
var heavy = Model{Prob: 0.85}

func TestNoneIsQuiet(t *testing.T) {
	s := rng.New(1)
	m := None()
	for i := 0; i < 100; i++ {
		l := m.Sample(s)
		if l.CPUUtil != 0 || l.MemUtil != 0 {
			t.Fatal("None model produced co-runner load")
		}
	}
}

func TestDefaultProducesMixOfLoads(t *testing.T) {
	s := rng.New(2)
	m := Default()
	quiet, busy := 0, 0
	for i := 0; i < 2000; i++ {
		l := m.Sample(s)
		if l.CPUUtil == 0 && l.MemUtil == 0 {
			quiet++
		} else {
			busy++
		}
	}
	if quiet < 600 || busy < 600 {
		t.Errorf("default model mix quiet=%d busy=%d; co-runner should appear on a random subset", quiet, busy)
	}
}

func TestHeavyBusierThanDefault(t *testing.T) {
	count := func(m Model, seed uint64) int {
		s := rng.New(seed)
		busy := 0
		for i := 0; i < 2000; i++ {
			if l := m.Sample(s); l.CPUUtil > 0 {
				busy++
			}
		}
		return busy
	}
	if count(heavy, 3) <= count(Default(), 3) {
		t.Error("Heavy environment should produce co-runners more often")
	}
}

func TestLoadsInUnitRange(t *testing.T) {
	s := rng.New(4)
	m := heavy
	for i := 0; i < 5000; i++ {
		l := m.Sample(s)
		if l.CPUUtil < 0 || l.CPUUtil > 1 || l.MemUtil < 0 || l.MemUtil > 1 {
			t.Fatalf("load out of range: %+v", l)
		}
	}
}

func TestPhasesCoverTable1Buckets(t *testing.T) {
	// The Table 1 S_Co_CPU buckets are none / <25% / <75% / <=100%.
	// The browsing phases should populate all four over many draws.
	s := rng.New(5)
	m := heavy
	var buckets [4]int
	for i := 0; i < 5000; i++ {
		l := m.Sample(s)
		switch {
		case l.CPUUtil == 0:
			buckets[0]++
		case l.CPUUtil < 0.25:
			buckets[1]++
		case l.CPUUtil < 0.75:
			buckets[2]++
		default:
			buckets[3]++
		}
	}
	for i, c := range buckets {
		if c == 0 {
			t.Errorf("S_Co_CPU bucket %d never observed", i)
		}
	}
}

func TestCPUContention(t *testing.T) {
	if got := (Load{}).CPUContention(); got != 0 {
		t.Errorf("no co-runner should mean zero contention, got %v", got)
	}
	light := Load{CPUUtil: 0.2}
	heavy := Load{CPUUtil: 0.9}
	if light.CPUContention() >= heavy.CPUContention() {
		t.Error("contention must grow with co-runner utilization")
	}
	if heavy.CPUContention() > 0.9 {
		t.Error("contention must stay below the 0.9 cap")
	}
}

func TestThermalThrottlingKink(t *testing.T) {
	// Just past the throttling threshold contention jumps by the
	// throttling penalty.
	below := Load{CPUUtil: 0.74}.CPUContention()
	above := Load{CPUUtil: 0.76}.CPUContention()
	if above-below < 0.15 {
		t.Errorf("throttling penalty missing: %.3f -> %.3f", below, above)
	}
}

func TestMemContention(t *testing.T) {
	if got := (Load{}).MemContention(); got != 0 {
		t.Errorf("no co-runner should mean zero memory contention, got %v", got)
	}
	if (Load{MemUtil: 1}).MemContention() > 0.8 {
		t.Error("memory contention must respect the 0.8 cap")
	}
}

// Property: contention values are always in [0, 0.9] and monotone in
// the underlying utilization.
func TestContentionProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw) / 255
		b := float64(bRaw) / 255
		if a > b {
			a, b = b, a
		}
		la, lb := Load{CPUUtil: a, MemUtil: a}, Load{CPUUtil: b, MemUtil: b}
		if la.CPUContention() > lb.CPUContention()+1e-12 {
			return false
		}
		if la.MemContention() > lb.MemContention()+1e-12 {
			return false
		}
		return lb.CPUContention() <= 0.9 && lb.MemContention() <= 0.8 &&
			la.CPUContention() >= 0 && la.MemContention() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
