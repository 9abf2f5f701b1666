package experiments

import (
	"strings"
	"testing"
)

func opts() Options { return Options{Seed: 42, Quick: true} }

func TestFig01HeadroomShape(t *testing.T) {
	f := Fig01Headroom(opts())
	ofl, ok := f.seriesValue("global PPW vs FedAvg-Random", "OFL")
	if !ok {
		t.Fatal("OFL point missing")
	}
	if ofl <= 1 {
		t.Errorf("OFL headroom = %.2fx, want > 1x (paper: up to 5.4x)", ofl)
	}
}

func TestFig04ShiftsAwayFromHighEnd(t *testing.T) {
	f := Fig04GlobalParams(opts())
	if len(f.Series) != 4 {
		t.Fatalf("fig04 has %d series, want 4 settings", len(f.Series))
	}
	// The paper's shape: at heavy per-device work (S1) high-end-heavy
	// clusters (C1/C2) do comparatively better than they do at light
	// work (S3). Compare C1's normalized PPW across settings.
	s1C1, ok1 := f.seriesValue("S1", "C1")
	s3C1, ok3 := f.seriesValue("S3", "C1")
	s1C7, _ := f.seriesValue("S1", "C7")
	s3C7, _ := f.seriesValue("S3", "C7")
	if !ok1 || !ok3 {
		t.Fatal("missing cluster points")
	}
	// Relative standing of C1 vs C7 must improve with heavier work.
	if s1C1/s1C7 <= s3C1/s3C7 {
		t.Errorf("C1-vs-C7 standing should be better at S1 (%.2f) than S3 (%.2f)",
			s1C1/s1C7, s3C1/s3C7)
	}
}

func TestFig05VarianceShifts(t *testing.T) {
	f := Fig05RuntimeVariance(opts())
	// Under interference, C1 (all high-end) must gain standing versus
	// the low-end C7; under weak network, C7/C5 must gain.
	idealC1, _ := f.seriesValue("ideal", "C1")
	idealC7, _ := f.seriesValue("ideal", "C7")
	interfC1, _ := f.seriesValue("interference", "C1")
	interfC7, _ := f.seriesValue("interference", "C7")
	if interfC1/interfC7 <= idealC1/idealC7 {
		t.Errorf("interference should favor C1 over C7: ideal ratio %.2f, interference %.2f",
			idealC1/idealC7, interfC1/interfC7)
	}
	weakC5, _ := f.seriesValue("weak-network", "C5")
	weakC1, _ := f.seriesValue("weak-network", "C1")
	if weakC5 < weakC1*0.8 {
		t.Errorf("weak network should favor low-power clusters: C5 %.2f vs C1 %.2f", weakC5, weakC1)
	}
}

func TestFig06HeterogeneityDegrades(t *testing.T) {
	f := Fig06DataHeterogeneity(opts())
	iid, ok := f.seriesValue("global PPW vs IID", "Ideal IID")
	if !ok || iid != 1 {
		t.Fatalf("IID baseline = %v", iid)
	}
	non100, _ := f.seriesValue("global PPW vs IID", "Non-IID (100%)")
	if non100 >= 0.6 {
		t.Errorf("Non-IID(100%%) PPW = %.2f of IID, want heavily degraded (paper: >85%% gap at full horizon)", non100)
	}
}

func TestFig08AutoFLWins(t *testing.T) {
	f := Fig08Overview(opts())
	for _, w := range []string{"CNN-MNIST"} {
		auto, ok := f.seriesValue(w+" PPW", "AutoFL")
		if !ok {
			t.Fatalf("missing AutoFL point for %s", w)
		}
		if auto <= 1 {
			t.Errorf("%s: AutoFL PPW %.2fx, want > 1x over random", w, auto)
		}
		power, _ := f.seriesValue(w+" PPW", "Power")
		if auto <= power {
			t.Errorf("%s: AutoFL (%.2fx) should beat Power (%.2fx)", w, auto, power)
		}
	}
}

func TestFig11BaselinesStallAutoFLConverges(t *testing.T) {
	f := Fig11HeterogeneityAdaptability(opts())
	// At Non-IID(75%), AutoFL's PPW advantage should be large because
	// the baseline never converges.
	auto, ok := f.seriesValue("Non-IID (75%) PPW", "AutoFL")
	if !ok {
		t.Fatal("missing AutoFL point")
	}
	// Quick horizons compress the gap; the full-horizon reproduction
	// (`autofl-bench -run fig11`) shows the multi-x factor of the paper.
	if auto <= 1.2 {
		t.Errorf("AutoFL PPW at Non-IID(75%%) = %.2fx, want a clear win (paper: 9.3x)", auto)
	}
}

func TestFig12PredictionAccuracy(t *testing.T) {
	f := Fig12PredictionAccuracy(opts())
	sel, ok := f.seriesValue("CNN-MNIST", "selection-accuracy")
	if !ok {
		t.Fatal("missing selection accuracy")
	}
	// AutoFL and OFL both avoid stragglers but can settle on different
	// near-optimal tier mixes (the optimum is degenerate in the
	// simulator), so agreement is meaningful but not near-perfect.
	if sel < 0.3 || sel > 1 {
		t.Errorf("selection accuracy = %.2f, want meaningful category-mix agreement with OFL", sel)
	}
	tgt, _ := f.seriesValue("CNN-MNIST", "target-accuracy")
	if tgt < 0.3 || tgt > 1 {
		t.Errorf("target accuracy = %.2f, want meaningful agreement", tgt)
	}
}

func TestFig13AutoFLBeatsPriorWork(t *testing.T) {
	f := Fig13PriorWork(opts())
	auto, _ := f.seriesValue("CNN-MNIST PPW", "AutoFL")
	fednova, _ := f.seriesValue("CNN-MNIST PPW", "FedNova")
	fedl, _ := f.seriesValue("CNN-MNIST PPW", "FEDL")
	if auto <= fednova || auto <= fedl {
		t.Errorf("AutoFL (%.2fx) should beat FedNova (%.2fx) and FEDL (%.2fx)",
			auto, fednova, fedl)
	}
}

func TestFig15RewardSettles(t *testing.T) {
	f := Fig15RewardConvergence(opts())
	if len(f.Series) != 2 {
		t.Fatalf("fig15 has %d series, want per-device and shared", len(f.Series))
	}
	for _, n := range f.Notes {
		if !strings.Contains(n, "settles around round") {
			t.Errorf("unexpected note %q", n)
		}
	}
}

func TestOverheadSmall(t *testing.T) {
	f := OverheadAnalysis(opts())
	share, ok := f.seriesValue("controller cost", "round-share-%")
	if !ok {
		t.Fatal("missing round share")
	}
	// Paper: 0.8% of round time. Our simulated rounds are tens of
	// seconds while controller work is microseconds.
	if share > 1 {
		t.Errorf("controller share of round time = %.3f%%, want < 1%%", share)
	}
}

func TestEnergyModelErrorBounded(t *testing.T) {
	f := EnergyModelError(opts())
	mape, ok := f.seriesValue("estimator", "MAPE-%")
	if !ok {
		t.Fatal("missing MAPE")
	}
	// Paper reports 7.3%; accept the same order of magnitude.
	if mape < 0 || mape > 25 {
		t.Errorf("MAPE = %.1f%%, want single-digit-to-low-double-digit", mape)
	}
}

func TestHyperparamFavorsPaperChoice(t *testing.T) {
	f := HyperparamSensitivity(opts())
	if len(f.Series) != 2 {
		t.Fatal("hyper sweep incomplete")
	}
	// The measured best should not contradict the paper wildly: the
	// high learning rate must not be the worst option.
	lo, _ := f.seriesValue("PPW vs learning-rate (discount 0.1)", "0.1")
	hi, _ := f.seriesValue("PPW vs learning-rate (discount 0.1)", "0.9")
	if hi < lo*0.8 {
		t.Errorf("learning rate 0.9 (%.3f) should not trail 0.1 (%.3f) badly", hi, lo)
	}
}

func TestRealFedAvgShape(t *testing.T) {
	f := RealFedAvgValidation(opts())
	if len(f.Series) != 4 {
		t.Fatalf("realfl has %d series, want 4", len(f.Series))
	}
	last := func(label string) float64 {
		for _, s := range f.Series {
			if s.Label == label && len(s.Points) > 0 {
				return s.Points[len(s.Points)-1].Y
			}
		}
		return -1
	}
	iid := last("IID random")
	non := last("NonIID100 random")
	if iid <= non {
		t.Errorf("real training: IID final %.3f should beat NonIID100 %.3f", iid, non)
	}
}

func TestByIDAndIDs(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not resolvable", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}

func TestRenderProducesTable(t *testing.T) {
	f := Fig01Headroom(opts())
	out := f.Render()
	if !strings.Contains(out, "fig01") || !strings.Contains(out, "paper:") {
		t.Errorf("render missing header:\n%s", out)
	}
	if !strings.Contains(out, "OFL") {
		t.Errorf("render missing data:\n%s", out)
	}
}

func TestQuickRoundsFloor(t *testing.T) {
	o := Options{Quick: true}
	if o.rounds(1000) != 200 {
		t.Errorf("quick rounds = %d, want 200", o.rounds(1000))
	}
	if o.rounds(50) != 40 {
		t.Errorf("quick floor = %d, want 40", o.rounds(50))
	}
	full := Options{}
	if full.rounds(1000) != 1000 {
		t.Error("full rounds should pass through")
	}
}
