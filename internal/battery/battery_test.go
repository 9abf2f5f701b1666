package battery

import (
	"math"
	"testing"
)

func testSpec() Spec {
	return Spec{CapacityJ: 1000}
}

// chargeJ reads device i's charge as of its last settle, without
// advancing time.
func chargeJ(m *Model, i int) float64 { return float64(m.chargeJ[i]) }

func TestWithDefaults(t *testing.T) {
	s := testSpec().WithDefaults()
	if s.ThresholdJ != 150 {
		t.Errorf("default ThresholdJ = %g, want 150", s.ThresholdJ)
	}
	if s.InitialFracLo != 0.80 || s.InitialFracHi != 0.95 {
		t.Errorf("default initial fracs = [%g, %g], want [0.80, 0.95]", s.InitialFracLo, s.InitialFracHi)
	}
	if s.HarvestW != 2.5 || s.ChargerFrac != 0.25 || s.DaySec != 86400 {
		t.Errorf("default harvest params = %+v", s)
	}
	// Explicit values survive.
	e := Spec{CapacityJ: 10, ThresholdJ: 4, InitialFracLo: 0.1, InitialFracHi: 0.2}.WithDefaults()
	if e.ThresholdJ != 4 || e.InitialFracLo != 0.1 || e.InitialFracHi != 0.2 {
		t.Errorf("explicit fields overwritten: %+v", e)
	}
}

// TestInitialChargeKeyed: a device's initial charge is a pure function
// of (seed, index) — two models of different sizes agree on shared
// indices, two seeds disagree.
func TestInitialChargeKeyed(t *testing.T) {
	small := New(testSpec(), 42, 100)
	big := New(testSpec(), 42, 10000)
	for i := 0; i < 100; i++ {
		if chargeJ(small, i) != chargeJ(big, i) {
			t.Fatalf("device %d initial charge depends on population size: %g vs %g",
				i, chargeJ(small, i), chargeJ(big, i))
		}
	}
	other := New(testSpec(), 43, 100)
	same := 0
	for i := 0; i < 100; i++ {
		if chargeJ(small, i) == chargeJ(other, i) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 initial charges identical across seeds", same)
	}
	// And all within the configured bounds.
	s := small.Spec()
	for i := 0; i < small.Len(); i++ {
		f := small.Frac(i)
		if f < s.InitialFracLo || f >= s.InitialFracHi {
			t.Fatalf("device %d initial frac %g outside [%g, %g)", i, f, s.InitialFracLo, s.InitialFracHi)
		}
	}
}

func TestSettleDrainsIdleAndClamps(t *testing.T) {
	m := New(Spec{CapacityJ: 100, InitialFracLo: 0.5, InitialFracHi: 0.5 + 1e-12}, 1, 4)
	c0 := chargeJ(m, 0)
	got := m.SettleAt(0, 0.5, 60) // 0.5 W for 60 s = 30 J
	if math.Abs((c0-got)-30) > 1e-4 {
		t.Errorf("idle settle drained %g J, want 30", c0-got)
	}
	// Idempotent at the same time.
	if again := m.SettleAt(0, 0.5, 60); again != got {
		t.Errorf("re-settle at same t changed charge: %g vs %g", again, got)
	}
	// Earlier time is a no-op.
	if back := m.SettleAt(0, 100, 10); back != got {
		t.Errorf("settle into the past changed charge: %g vs %g", back, got)
	}
	// Clamps at empty.
	if z := m.SettleAt(1, 1000, 3600); z != 0 {
		t.Errorf("over-drain settled to %g, want 0", z)
	}
	if !m.Depleted(1) || m.Available(1) {
		t.Error("empty device should be depleted and unavailable")
	}
}

func TestDrainClampsAndIgnoresNegative(t *testing.T) {
	m := New(Spec{CapacityJ: 100, InitialFracLo: 0.5, InitialFracHi: 0.5 + 1e-12}, 1, 1)
	c0 := chargeJ(m, 0)
	m.Drain(0, -5)
	if chargeJ(m, 0) != c0 {
		t.Error("negative drain changed charge")
	}
	m.Drain(0, 10)
	if math.Abs(chargeJ(m, 0)-(c0-10)) > 1e-4 {
		t.Errorf("drain(10) left %g, want %g", chargeJ(m, 0), c0-10)
	}
	m.Drain(0, 1e9)
	if chargeJ(m, 0) != 0 {
		t.Errorf("over-drain left %g, want 0", chargeJ(m, 0))
	}
}

// TestChargerHarvest: plugged-in devices recharge at HarvestW net of
// idle and clamp at capacity; unplugged devices only drain. Membership
// is keyed, so the plugged fraction is near ChargerFrac.
func TestChargerHarvest(t *testing.T) {
	spec := Spec{CapacityJ: 100, Harvest: ProfileCharger, HarvestW: 2, ChargerFrac: 0.5}
	m := New(spec, 7, 2000)
	plugged := 0
	for i := 0; i < m.Len(); i++ {
		before := chargeJ(m, i)
		after := m.SettleAt(i, 0.1, 1000) // net +1.9 W or -0.1 W
		switch {
		case after > before:
			plugged++
			if after > spec.CapacityJ {
				t.Fatalf("device %d charged past capacity: %g", i, after)
			}
		case after < before:
		default:
			// Equal only when clamped at capacity already — impossible
			// here since initial frac < 1 and drain is nonzero.
			t.Fatalf("device %d charge unchanged by 1000 s settle", i)
		}
	}
	frac := float64(plugged) / float64(m.Len())
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("plugged fraction %g, want ~0.5", frac)
	}
}

// TestSolarHarvest: the diurnal profile is nonnegative, peaks at
// HarvestW, and per-device phases spread so some devices are in
// daylight and others are not at any instant.
func TestSolarHarvest(t *testing.T) {
	spec := Spec{CapacityJ: 1e6, Harvest: ProfileSolar, HarvestW: 3, DaySec: 1000}
	m := New(spec, 11, 500)
	day, night := 0, 0
	for i := 0; i < m.Len(); i++ {
		h := m.harvestJ(i, 0, 10)
		if h < 0 || h > spec.HarvestW*10+1e-9 {
			t.Fatalf("device %d harvested %g J over 10 s, want within [0, %g]", i, h, spec.HarvestW*10)
		}
		if h > 0 {
			day++
		} else {
			night++
		}
	}
	if day == 0 || night == 0 {
		t.Errorf("solar phases not spread: %d day, %d night", day, night)
	}
}

func TestMemoryBytes(t *testing.T) {
	m := New(testSpec(), 1, 1000)
	if got := m.MemoryBytes(); got != 8000 {
		t.Errorf("MemoryBytes = %d, want 8000 (8 B/device)", got)
	}
}
