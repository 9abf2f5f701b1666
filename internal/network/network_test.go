package network

import (
	"testing"
	"testing/quick"

	"autofl/internal/power"
	"autofl/internal/rng"
)

func TestProfilesOrdering(t *testing.T) {
	if !(Weak().MeanMbps < Variable().MeanMbps && Variable().MeanMbps < Stable().MeanMbps) {
		t.Error("profile mean bandwidths must order weak < variable < stable")
	}
}

func TestSampleWithinBounds(t *testing.T) {
	s := rng.New(1)
	for _, p := range []Profile{Stable(), Variable(), Weak()} {
		for i := 0; i < 2000; i++ {
			v := p.Sample(s)
			if v < p.MinMbps || v > p.MaxMbps {
				t.Fatalf("%s sample %v outside [%v, %v]", p.Name, v, p.MinMbps, p.MaxMbps)
			}
		}
	}
}

func TestWeakProfileMostlyBad(t *testing.T) {
	s := rng.New(2)
	p := Weak()
	bad := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if p.Sample(s) <= RegularBandwidthMbps {
			bad++
		}
	}
	if float64(bad)/n < 0.9 {
		t.Errorf("weak profile produced only %d/%d bad-bucket draws", bad, n)
	}
}

func TestStableProfileMostlyRegular(t *testing.T) {
	s := rng.New(3)
	p := Stable()
	regular := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if p.Sample(s) > RegularBandwidthMbps {
			regular++
		}
	}
	if float64(regular)/n < 0.99 {
		t.Errorf("stable profile produced only %d/%d regular draws", regular, n)
	}
}

func TestSignalFor(t *testing.T) {
	if SignalFor(100) != power.SignalGood {
		t.Error("100 Mbps should map to good signal")
	}
	if SignalFor(50) != power.SignalFair {
		t.Error("50 Mbps should map to fair signal")
	}
	if SignalFor(20) != power.SignalPoor {
		t.Error("20 Mbps should map to poor signal")
	}
	if SignalFor(RegularBandwidthMbps) != power.SignalPoor {
		t.Error("the bad-bucket boundary is inclusive (<= 40)")
	}
}

func TestCommSeconds(t *testing.T) {
	p := Stable()
	// 10 MB at 80 Mbps = 1 second of transfer plus base latency.
	got := p.CommSeconds(10e6, 80)
	want := p.BaseLatencySec + 1.0
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("CommSeconds = %v, want %v", got, want)
	}
}

func TestCommSecondsEdges(t *testing.T) {
	p := Variable()
	if got := p.CommSeconds(0, 100); got != p.BaseLatencySec {
		t.Errorf("zero payload should cost only base latency, got %v", got)
	}
	// Bandwidth below the profile floor is clamped, not divided by ~0.
	slow := p.CommSeconds(1e6, 0.0001)
	floor := p.CommSeconds(1e6, p.MinMbps)
	if slow != floor {
		t.Errorf("sub-floor bandwidth should clamp: %v vs %v", slow, floor)
	}
}

// Property: comm time decreases (weakly) with bandwidth and increases
// with payload.
func TestCommSecondsMonotoneProperty(t *testing.T) {
	p := Variable()
	f := func(bytesRaw uint16, mbpsRaw uint8) bool {
		payload := float64(bytesRaw) * 1000
		mbps := 5 + float64(mbpsRaw)/2
		t1 := p.CommSeconds(payload, mbps)
		t2 := p.CommSeconds(payload, mbps+10)
		t3 := p.CommSeconds(payload+1e6, mbps)
		return t2 <= t1 && t3 >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWeakLinkCostsMoreEnergyPerByte(t *testing.T) {
	// §3.2: on a weak signal, communication time and energy rise
	// sharply (4.3x on average in the paper). Check the composed
	// model: same payload, weak vs stable link.
	payload := 10e6
	stable, weak := Stable(), Weak()
	tStable := stable.CommSeconds(payload, stable.MeanMbps)
	tWeak := weak.CommSeconds(payload, weak.MeanMbps)
	eStable := power.CommEnergy(SignalFor(stable.MeanMbps), tStable)
	eWeak := power.CommEnergy(SignalFor(weak.MeanMbps), tWeak)
	ratio := eWeak / eStable
	if ratio < 3 {
		t.Errorf("weak/stable comm energy ratio = %.2f, want >= 3 (paper reports ~4.3x time)", ratio)
	}
}
