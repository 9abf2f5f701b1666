package fedavg

import (
	"testing"

	"autofl/internal/data"
	"autofl/internal/rng"
	"autofl/internal/tensor"
)

func TestIIDFedAvgConverges(t *testing.T) {
	cfg := DefaultConfig()
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := tr.Run(40, RandomSelector(cfg.K, 2))
	if err != nil {
		t.Fatal(err)
	}
	final := trace[len(trace)-1]
	if final < 0.85 {
		t.Errorf("IID FedAvg final accuracy = %.3f, want >= 0.85", final)
	}
	if trace[0] >= final {
		t.Error("accuracy should improve over rounds")
	}
}

func TestNonIIDConvergesSlower(t *testing.T) {
	// The paper's Fig 6(a) with real gradients: Dirichlet non-IID
	// clients slow and degrade convergence relative to IID.
	run := func(sc data.Scenario) []float64 {
		cfg := DefaultConfig()
		cfg.Data = sc
		cfg.Seed = 3
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := tr.Run(40, RandomSelector(cfg.K, 4))
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}
	iid := run(data.IdealIID)
	non := run(data.NonIID100)
	// Compare area under the accuracy curve: non-IID must trail.
	sum := func(xs []float64) float64 {
		total := 0.0
		for _, x := range xs {
			total += x
		}
		return total
	}
	if sum(non) >= sum(iid) {
		t.Errorf("non-IID accuracy curve (area %.1f) should trail IID (%.1f)", sum(non), sum(iid))
	}
}

func TestQualitySelectionBeatsRandomUnderHeterogeneity(t *testing.T) {
	// Cross-validation of the sim's central assumption: under heavy
	// non-IID data, a stable quality-driven cohort (what AutoFL learns)
	// trains better than random selection — with real gradients.
	run := func(sel Selector, seed uint64) float64 {
		cfg := DefaultConfig()
		cfg.Data = data.NonIID75
		cfg.Seed = seed
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := tr.Run(40, sel)
		if err != nil {
			t.Fatal(err)
		}
		// Mean accuracy of the last 10 rounds smooths SGD noise.
		total := 0.0
		for _, a := range trace[len(trace)-10:] {
			total += a
		}
		return total / 10
	}
	cfg := DefaultConfig()
	random := run(RandomSelector(cfg.K, 5), 7)
	quality := run(QualitySelector(cfg.K), 7)
	if quality <= random {
		t.Errorf("quality selection accuracy %.3f should beat random %.3f at Non-IID(75%%)",
			quality, random)
	}
}

func TestTrainerDeterminism(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultConfig()
		cfg.Seed = 9
		tr, _ := NewTrainer(cfg)
		trace, _ := tr.Run(5, RandomSelector(cfg.K, 10))
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("federated training must be deterministic for equal seeds")
		}
	}
}

func TestLocalTrainImprovesLocalFit(t *testing.T) {
	cfg := DefaultConfig()
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := tr.clients[0]
	model := tr.global.Clone()
	before := model.Accuracy(ds.X, ds.Labels)
	params, err := LocalTrain(model, tr.global.Params(), ds, 5, cfg.Batch, cfg.LR, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SetParams(params); err != nil {
		t.Fatal(err)
	}
	after := model.Accuracy(ds.X, ds.Labels)
	if after <= before {
		t.Errorf("local training should improve local accuracy: %.3f -> %.3f", before, after)
	}
}

func TestLocalTrainEmptyDataset(t *testing.T) {
	cfg := DefaultConfig()
	tr, _ := NewTrainer(cfg)
	model := tr.global.Clone()
	empty := &Dataset{X: tensor.New(0, cfg.Spec.Dim), Labels: nil}
	params, err := LocalTrain(model, tr.global.Params(), empty, 2, 8, 0.1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != model.NumParams() {
		t.Error("empty dataset should return unchanged parameters")
	}
}

func TestRoundWithBadSelector(t *testing.T) {
	cfg := DefaultConfig()
	tr, _ := NewTrainer(cfg)
	_, err := tr.Round(0, func(round int, p []data.DeviceData) []int { return []int{-1} })
	if err == nil {
		t.Error("invalid client index should error")
	}
	acc, err := tr.Round(0, func(round int, p []data.DeviceData) []int { return nil })
	if err != nil || acc < 0 {
		t.Error("empty selection should be a no-op round")
	}
}

func TestNewTrainerValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Devices = 0
	if _, err := NewTrainer(cfg); err == nil {
		t.Error("zero devices should error")
	}
}

func TestProblemSampleProportions(t *testing.T) {
	p := NewProblem(DefaultSynthetic(), rng.New(13))
	props := make([]float64, 10)
	props[3] = 1 // all mass on class 3
	ds := p.Sample(rng.New(14), 50, props)
	for _, l := range ds.Labels {
		if l != 3 {
			t.Fatalf("sample with concentrated proportions produced class %d", l)
		}
	}
}
