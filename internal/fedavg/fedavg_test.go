package fedavg

import (
	"testing"

	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/policy"
	"autofl/internal/rng"
	"autofl/internal/sim"
	"autofl/internal/tensor"
	"autofl/internal/workload"
)

// newTrainer builds a trainer on a 40-device partition of the scenario
// with 80 samples per device on average, drawn with the config's seed.
func newTrainer(t *testing.T, cfg Config, sc data.Scenario) *Trainer {
	t.Helper()
	tr, err := NewTrainer(cfg, data.ExactPackedPartition(cfg.Seed, sc, 40, cfg.Spec.Classes, 80))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestIIDFedAvgConverges(t *testing.T) {
	cfg := DefaultConfig()
	trace, err := newTrainer(t, cfg, data.IdealIID).Run(40, RandomSelector(cfg.K, 2))
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
		cfg.Seed = 3
		trace, err := newTrainer(t, cfg, sc).Run(40, RandomSelector(cfg.K, 4))
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
		cfg.Seed = seed
		trace, err := newTrainer(t, cfg, data.NonIID75).Run(40, sel)
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
		trace, _ := newTrainer(t, cfg, data.IdealIID).Run(5, RandomSelector(cfg.K, 10))
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
	tr := newTrainer(t, cfg, data.IdealIID)
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
	tr := newTrainer(t, cfg, data.IdealIID)
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
	tr := newTrainer(t, DefaultConfig(), data.IdealIID)
	_, err := tr.Round(0, func(round int, p *data.Packed) []int { return []int{-1} })
	if err == nil {
		t.Error("invalid client index should error")
	}
	acc, err := tr.Round(0, func(round int, p *data.Packed) []int { return nil })
	if err != nil || acc < 0 {
		t.Error("empty selection should be a no-op round")
	}
}

func TestNewTrainerValidation(t *testing.T) {
	cfg := DefaultConfig()
	part := data.ExactPackedPartition(1, data.NonIID50, 10, cfg.Spec.Classes, 80)
	noK := cfg
	noK.K = 0
	for _, c := range []struct {
		name string
		cfg  Config
		part *data.Packed
	}{
		{"nil partition", cfg, nil},
		{"zero devices", cfg, data.ExactPackedPartition(1, data.NonIID50, 0, cfg.Spec.Classes, 80)},
		{"zero K", noK, part},
		{"class count mismatch", cfg, data.ExactPackedPartition(1, data.NonIID50, 10, cfg.Spec.Classes+1, 80)},
	} {
		if _, err := NewTrainer(c.cfg, c.part); err == nil {
			t.Errorf("%s should error", c.name)
		}
	}
	if _, err := NewTrainer(cfg, part); err != nil {
		t.Errorf("valid partition: %v", err)
	}
}

// TestTrainerOnEnginePartition trains on the partition the engine
// steps on: a trainer built from an exhaustive (Sample == N) engine's
// PackedData holds, for every device i, a client with device i's
// sample count, and the engine's first-round view row i reports the
// same samples, class fraction and quality.
func TestTrainerOnEnginePartition(t *testing.T) {
	pop, err := device.NewPopulation(6, 14, 20)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(sim.Config{
		Workload:   workload.CNNMNIST(),
		Params:     workload.S3,
		Population: pop,
		Sample:     pop.Len(),
		Data:       data.NonIID75,
		Env:        sim.EnvIdeal(),
		Seed:       21,
		MaxRounds:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	part := eng.PackedData()
	tr, err := NewTrainer(DefaultConfig(), part)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := eng.RunRound(policy.NewRandom(22), 0, 0)
	if len(tr.clients) != part.Len() || len(ctx.Devices) != part.Len() {
		t.Fatalf("%d clients and %d view rows for %d devices", len(tr.clients), len(ctx.Devices), part.Len())
	}
	nonIID := 0
	for i := 0; i < part.Len(); i++ {
		if got, want := tr.clients[i].Len(), int(part.Samples[i]); got != want {
			t.Errorf("client %d: %d samples, device has %d", i, got, want)
		}
		row := ctx.Devices[i]
		if row.Device.ID != i {
			t.Fatalf("view row %d holds device %d", i, row.Device.ID)
		}
		d := row.Data
		if d.Samples != int(part.Samples[i]) || d.ClassFraction != float64(part.ClassFrac[i]) || d.Quality != float64(part.Quality[i]) {
			t.Errorf("view row %d: samples %d frac %v quality %v, partition %d %v %v",
				i, d.Samples, d.ClassFraction, d.Quality, part.Samples[i], part.ClassFrac[i], part.Quality[i])
		}
		if part.Proportions(i) != nil {
			nonIID++
		}
	}
	if want := int(float64(part.Len())*0.75 + 0.5); nonIID != want {
		t.Errorf("%d non-IID clients, want %d", nonIID, want)
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
