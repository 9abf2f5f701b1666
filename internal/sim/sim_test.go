package sim

import (
	"math"
	"testing"

	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/rng"
	"autofl/internal/workload"
)

// randomPolicy is a minimal FedAvg-Random stand-in for engine tests
// (the real policy set lives in internal/policy).
type randomPolicy struct{ s *rng.Stream }

func newRandomPolicy(seed uint64) *randomPolicy { return &randomPolicy{s: rng.New(seed)} }

func (p *randomPolicy) Name() string { return "test-random" }

func (p *randomPolicy) Select(ctx *RoundContext) []Selection {
	idx := p.s.Sample(len(ctx.Devices), ctx.Params.K)
	out := make([]Selection, 0, len(idx))
	for _, i := range idx {
		out = append(out, Selection{Index: i, Target: device.CPU, Step: -1})
	}
	return out
}

// testPopulation builds a tiered population with the given per-tier
// device counts.
func testPopulation(tb testing.TB, high, mid, low int) *device.Population {
	tb.Helper()
	p, err := device.NewPopulation(high, mid, low)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func quickCfg(seed uint64) Config {
	return Config{
		Workload:  workload.CNNMNIST(),
		Params:    workload.S3,
		Data:      data.IdealIID,
		Env:       EnvIdeal(),
		Seed:      seed,
		MaxRounds: 600,
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		return New(quickCfg(42)).Run(newRandomPolicy(7))
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.FinalAccuracy != b.FinalAccuracy ||
		a.EnergyToTargetJ != b.EnergyToTargetJ || a.TimeToTargetSec != b.TimeToTargetSec {
		t.Fatalf("runs with identical seeds diverged:\n%v\n%v", a, b)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(quickCfg(1)).Run(newRandomPolicy(7))
	b := New(quickCfg(2)).Run(newRandomPolicy(7))
	if a.EnergyToTargetJ == b.EnergyToTargetJ && a.TimeToTargetSec == b.TimeToTargetSec {
		t.Error("different engine seeds produced identical results")
	}
}

func TestIIDRandomConverges(t *testing.T) {
	res := New(quickCfg(3)).Run(newRandomPolicy(7))
	if !res.Converged {
		t.Fatalf("IID random selection failed to converge: %v", res)
	}
	// The paper notes FL convergence usually takes > 200 rounds; the
	// calibrated model should land in the low hundreds.
	if res.ConvergedRound < 100 || res.ConvergedRound > 500 {
		t.Errorf("converged at round %d, want O(200)", res.ConvergedRound)
	}
}

func TestNonIID50Converges(t *testing.T) {
	cfg := quickCfg(4)
	cfg.Data = data.NonIID50
	res := New(cfg).Run(newRandomPolicy(7))
	if !res.Converged {
		t.Fatalf("Non-IID(50%%) random selection should still converge: %v", res)
	}
}

func TestNonIID50SlowerThanIID(t *testing.T) {
	iid := New(quickCfg(5)).Run(newRandomPolicy(7))
	cfg := quickCfg(5)
	cfg.Data = data.NonIID50
	nonIID := New(cfg).Run(newRandomPolicy(7))
	if !iid.Converged || !nonIID.Converged {
		t.Fatal("both runs should converge")
	}
	if nonIID.ConvergedRound <= iid.ConvergedRound {
		t.Errorf("Non-IID(50%%) converged at %d, IID at %d; heterogeneity must slow convergence",
			nonIID.ConvergedRound, iid.ConvergedRound)
	}
}

func TestHeavyNonIIDDoesNotConverge(t *testing.T) {
	// Fig 11(c)/(d): with Non-IID(75%) and Non-IID(100%), random
	// selection does not converge within 1000 rounds.
	for _, sc := range []data.Scenario{data.NonIID75, data.NonIID100} {
		cfg := quickCfg(6)
		cfg.Data = sc
		cfg.MaxRounds = 1000
		res := New(cfg).Run(newRandomPolicy(7))
		if res.Converged {
			t.Errorf("%s: random selection converged at round %d; paper reports no convergence in 1000 rounds",
				sc.Name, res.ConvergedRound)
		}
		if res.FinalAccuracy >= res.TargetAccuracy {
			t.Errorf("%s: final accuracy %v above target", sc.Name, res.FinalAccuracy)
		}
	}
}

func TestNonIID100PlateausLowerThan75(t *testing.T) {
	run := func(sc data.Scenario) float64 {
		cfg := quickCfg(7)
		cfg.Data = sc
		cfg.MaxRounds = 600
		return New(cfg).Run(newRandomPolicy(7)).FinalAccuracy
	}
	a75, a100 := run(data.NonIID75), run(data.NonIID100)
	if a100 >= a75 {
		t.Errorf("Non-IID(100%%) plateau %.3f should sit below Non-IID(75%%) %.3f", a100, a75)
	}
}

// stablePolicy always selects the same device set: the model for a
// learned selector's stationary cohort.
type stablePolicy struct{ devices []int }

func (p *stablePolicy) Name() string { return "test-stable" }
func (p *stablePolicy) Select(ctx *RoundContext) []Selection {
	out := make([]Selection, 0, len(p.devices))
	for _, i := range p.devices {
		out = append(out, Selection{Index: i, Target: device.CPU, Step: -1})
	}
	return out
}

func TestStableCohortConvergesAtFullNonIID(t *testing.T) {
	// The selection-stability mechanism: a fixed, high-quality cohort
	// converges even when 100% of devices are non-IID (Fig 11d,
	// AutoFL bar), while random selection does not (tested above).
	cfg := quickCfg(8)
	cfg.Data = data.NonIID100
	cfg.MaxRounds = 1000
	eng := New(cfg)
	// Pick the K highest-quality devices, as a converged selector
	// would.
	quality := eng.PackedData().Quality
	type dq struct {
		idx int
		q   float32
	}
	best := make([]dq, len(quality))
	for i, q := range quality {
		best[i] = dq{i, q}
	}
	for i := 1; i < len(best); i++ { // insertion sort by quality desc
		for j := i; j > 0 && best[j].q > best[j-1].q; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	sel := make([]int, cfg.Params.K)
	for i := range sel {
		sel[i] = best[i].idx
	}
	res := eng.Run(&stablePolicy{devices: sel})
	if !res.Converged {
		t.Errorf("stable high-quality cohort should converge at Non-IID(100%%): %v", res)
	}
}

func TestStragglerDeadlineDropsSlowDevices(t *testing.T) {
	// Force one low-end device into a selection of high-end devices
	// with an aggressive straggler factor: it must be dropped.
	cfg := Config{
		Workload:        workload.CNNMNIST(),
		Params:          workload.GlobalParams{B: 16, E: 5, K: 20},
		Population:      testPopulation(t, 19, 0, 1),
		Data:            data.IdealIID,
		Env:             EnvIdeal(),
		Seed:            9,
		MaxRounds:       5,
		StragglerFactor: 1.2,
	}
	eng := New(cfg)
	all := make([]int, 20)
	for i := range all {
		all[i] = i
	}
	_, res := eng.RunRound(&stablePolicy{devices: all}, 0, 0.1)
	lowIdx := 19 // the single low-end device
	if !res.Devices[lowIdx].Dropped {
		t.Error("low-end straggler should miss the deadline among high-end peers")
	}
	if res.Dropped < 1 {
		t.Error("round should report dropped stragglers")
	}
	if res.Devices[lowIdx].UpdateFraction != 0 {
		t.Error("plain FedAvg drops straggler updates entirely")
	}
	if res.RoundSec > res.Deadline+1e-9 {
		t.Error("round duration must not exceed the deadline when stragglers are cut")
	}
}

// partialPolicy wraps stablePolicy with FedNova-style traits.
type partialPolicy struct {
	stablePolicy
	traits AggregationTraits
}

func (p *partialPolicy) Traits() AggregationTraits { return p.traits }

func TestPartialUpdatesKeepStragglerMass(t *testing.T) {
	cfg := Config{
		Workload:        workload.CNNMNIST(),
		Params:          workload.GlobalParams{B: 16, E: 5, K: 20},
		Population:      testPopulation(t, 19, 0, 1),
		Data:            data.IdealIID,
		Env:             EnvIdeal(),
		Seed:            9,
		MaxRounds:       5,
		StragglerFactor: 1.2,
	}
	eng := New(cfg)
	all := make([]int, 20)
	for i := range all {
		all[i] = i
	}
	p := &partialPolicy{
		stablePolicy: stablePolicy{devices: all},
		traits:       AggregationTraits{PartialUpdates: true},
	}
	_, res := eng.RunRound(p, 0, 0.1)
	frac := res.Devices[19].UpdateFraction
	if frac <= 0 || frac >= 1 {
		t.Errorf("partial-update straggler fraction = %v, want in (0, 1)", frac)
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng := New(quickCfg(10))
	_, res := eng.RunRound(newRandomPolicy(3), 0, 0.1)
	if res.EnergyJ <= 0 || res.ParticipantEnergyJ <= 0 {
		t.Fatal("round energies must be positive")
	}
	if res.ParticipantEnergyJ >= res.EnergyJ {
		t.Error("fleet energy must exceed participant energy (idle devices burn power)")
	}
	sum := 0.0
	selected := 0
	for _, dr := range res.Devices {
		if dr.EnergyJ < 0 {
			t.Fatal("negative device energy")
		}
		sum += dr.EnergyJ
		if dr.Selected {
			selected++
		}
	}
	if math.Abs(sum-res.EnergyJ)/res.EnergyJ > 1e-9 {
		t.Errorf("device energies sum to %v, total says %v", sum, res.EnergyJ)
	}
	if selected != eng.Config().Params.K {
		t.Errorf("selected %d devices, want K=%d", selected, eng.Config().Params.K)
	}
}

func TestIdleDevicesCheaperThanParticipants(t *testing.T) {
	eng := New(quickCfg(11))
	_, res := eng.RunRound(newRandomPolicy(3), 0, 0.1)
	var maxIdle, minActive float64 = 0, math.Inf(1)
	for _, dr := range res.Devices {
		if dr.Selected {
			if dr.EnergyJ < minActive {
				minActive = dr.EnergyJ
			}
		} else if dr.EnergyJ > maxIdle {
			maxIdle = dr.EnergyJ
		}
	}
	if maxIdle >= minActive {
		t.Errorf("idle energy (max %v) should be below participant energy (min %v)", maxIdle, minActive)
	}
}

func TestSanitizeClampsAndDedupes(t *testing.T) {
	eng := New(quickCfg(12))
	ctx := eng.observe(new(roundScratch), 0, 0.1)
	raw := []Selection{
		{Index: 5, Target: device.CPU, Step: 9999},
		{Index: 5, Target: device.CPU, Step: 0}, // duplicate
		{Index: -1, Target: device.CPU, Step: 0},
		{Index: len(ctx.Devices), Target: device.CPU, Step: 0},
		{Index: 6, Target: device.GPU, Step: -1},
	}
	out := sanitize(new(roundScratch), ctx, raw)
	if len(out) != 2 {
		t.Fatalf("sanitize kept %d selections, want 2", len(out))
	}
	if out[0].Index != 5 || out[1].Index != 6 {
		t.Errorf("sanitize kept wrong devices: %+v", out)
	}
	top := ctx.Devices[5].Device.Spec.CPU.TopStep()
	if out[0].Step != top {
		t.Errorf("oversized step should clamp to top (%d), got %d", top, out[0].Step)
	}
}

func TestSanitizeTruncatesToK(t *testing.T) {
	eng := New(quickCfg(13))
	ctx := eng.observe(new(roundScratch), 0, 0.1)
	var raw []Selection
	for i := 0; i < 50; i++ {
		raw = append(raw, Selection{Index: i, Target: device.CPU, Step: -1})
	}
	out := sanitize(new(roundScratch), ctx, raw)
	if len(out) != ctx.Params.K {
		t.Errorf("sanitize kept %d, want K=%d", len(out), ctx.Params.K)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 2, 3}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{nil, 0},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestEstimateMatchesExecution(t *testing.T) {
	eng := New(quickCfg(14))
	p := newRandomPolicy(5)
	ctx, res := eng.RunRound(p, 0, 0.1)
	for _, dr := range res.Devices {
		if !dr.Selected {
			continue
		}
		comp, comm := ctx.Estimate(dr.Index, dr.Target, dr.Step)
		if math.Abs(comp-dr.CompSec) > 1e-9 || math.Abs(comm-dr.CommSec) > 1e-9 {
			t.Fatalf("estimate (%v, %v) disagrees with execution (%v, %v)",
				comp, comm, dr.CompSec, dr.CommSec)
		}
	}
}

func TestInterferenceSlowsRounds(t *testing.T) {
	mean := func(env Env, seed uint64) float64 {
		cfg := quickCfg(seed)
		cfg.Env = env
		cfg.MaxRounds = 60
		cfg.TargetAccuracy = 1.1 // never converge; measure steady-state rounds
		res := New(cfg).Run(newRandomPolicy(3))
		return res.MeanRoundSec
	}
	ideal := mean(EnvIdeal(), 15)
	interf := mean(EnvInterference(), 15)
	if interf <= ideal {
		t.Errorf("interference rounds (%.1fs) should be slower than ideal (%.1fs)", interf, ideal)
	}
}

func TestWeakNetworkSlowsRounds(t *testing.T) {
	mean := func(env Env, seed uint64) float64 {
		cfg := quickCfg(seed)
		cfg.Env = env
		cfg.MaxRounds = 60
		cfg.TargetAccuracy = 1.1
		res := New(cfg).Run(newRandomPolicy(3))
		return res.MeanRoundSec
	}
	ideal := mean(EnvIdeal(), 16)
	weak := mean(EnvWeakNetwork(), 16)
	if weak <= ideal {
		t.Errorf("weak-network rounds (%.1fs) should be slower than ideal (%.1fs)", weak, ideal)
	}
}

func TestSmallerKSlowsConvergence(t *testing.T) {
	runRounds := func(k int, seed uint64) int {
		cfg := quickCfg(seed)
		cfg.Params.K = k
		res := New(cfg).Run(newRandomPolicy(3))
		if !res.Converged {
			return cfg.MaxRounds + 1
		}
		return res.ConvergedRound
	}
	// Fewer participants per round → less update mass → slower.
	if runRounds(5, 17) <= runRounds(20, 17) {
		t.Error("K=5 should need more rounds than K=20")
	}
}

func TestProgressAndPPW(t *testing.T) {
	r := &Result{
		Converged:                  true,
		EnergyToTargetJ:            100,
		ParticipantEnergyToTargetJ: 50,
		TargetAccuracy:             0.9,
		AccuracyFloor:              0.1,
		FinalAccuracy:              0.9,
	}
	if r.Progress() != 1 {
		t.Error("converged run progress should be 1")
	}
	if r.GlobalPPW() != 0.01 || r.LocalPPW() != 0.02 {
		t.Errorf("PPW = (%v, %v), want (0.01, 0.02)", r.GlobalPPW(), r.LocalPPW())
	}
	// Unconverged progress: zero at the floor, monotone in accuracy,
	// capped below 1, and strongly penalizing plateaus far from the
	// target (log-gap closure).
	prog := func(acc float64) float64 {
		return (&Result{TargetAccuracy: 0.9, AccuracyFloor: 0.1, FinalAccuracy: acc}).Progress()
	}
	if got := prog(0.1); got != 0 {
		t.Errorf("progress at floor = %v, want 0", got)
	}
	if !(prog(0.3) < prog(0.5) && prog(0.5) < prog(0.8) && prog(0.8) < prog(0.89)) {
		t.Error("progress must be monotone in accuracy")
	}
	if got := prog(0.89); got >= 1 {
		t.Errorf("just-below-target progress = %v, want < 1", got)
	}
	// Log-gap: the last stretch toward the target carries much of the
	// effort, so mid-range accuracy maps to well under its linear
	// share.
	if got := prog(0.5); got >= 0.5 {
		t.Errorf("half-accuracy progress = %v, want < 0.5 under log-gap closure", got)
	}
	empty := &Result{}
	if empty.GlobalPPW() != 0 || empty.LocalPPW() != 0 {
		t.Error("zero-energy results should report zero PPW")
	}
}

func TestDefaultsApplied(t *testing.T) {
	eng := New(Config{})
	cfg := eng.Config()
	if cfg.Workload == nil || cfg.Population == nil {
		t.Fatal("defaults not applied")
	}
	if cfg.MaxRounds != DefaultMaxRounds {
		t.Errorf("MaxRounds = %d", cfg.MaxRounds)
	}
	if cfg.StragglerFactor != DefaultStragglerFactor {
		t.Errorf("StragglerFactor = %v", cfg.StragglerFactor)
	}
	if n := cfg.Population.Len(); n != 200 || cfg.Sample != n {
		t.Errorf("default population = %d devices, sample %d; want 200 and 200", n, cfg.Sample)
	}
	if got := cfg.Population.CountByCategory(); got != [device.NumCategories]int{30, 70, 100} {
		t.Errorf("default tier mix = %v, want [30 70 100]", got)
	}
	if cfg.TargetAccuracy <= cfg.Workload.AccuracyFloor || cfg.TargetAccuracy >= cfg.Workload.AccuracyCeiling {
		t.Errorf("default target %v outside (floor, ceiling)", cfg.TargetAccuracy)
	}
}

func TestEmptySelectionRound(t *testing.T) {
	eng := New(quickCfg(18))
	_, res := eng.RunRound(&stablePolicy{}, 0, 0.25)
	if res.Accuracy != 0.25 {
		t.Error("round with no participants must leave accuracy unchanged")
	}
	if res.Kept != 0 {
		t.Error("no updates should be kept")
	}
	if res.EnergyJ <= 0 {
		t.Error("idle fleet still burns energy")
	}
}

func TestPlateauShape(t *testing.T) {
	if plateau(1) < 0.99 {
		t.Errorf("plateau(1) = %v, want ~1", plateau(1))
	}
	if plateau(0.18) > 0.75 {
		t.Errorf("plateau(0.18) = %v, want visibly degraded", plateau(0.18))
	}
	for q := 0.0; q < 1; q += 0.05 {
		if plateau(q) > plateau(q+0.05)+1e-12 {
			t.Fatal("plateau must be monotone in round quality")
		}
	}
}

func TestAccuracyTraceMonotonicEnvelope(t *testing.T) {
	res := New(quickCfg(19)).Run(newRandomPolicy(3))
	// Individual rounds may regress slightly, but the running max
	// must approach the target.
	runMax := 0.0
	for _, a := range res.Trace.Accuracy {
		if a > runMax {
			runMax = a
		}
		if a < 0 || a > 1 {
			t.Fatalf("accuracy %v out of range", a)
		}
	}
	if runMax < res.TargetAccuracy {
		t.Error("trace never reached the target despite convergence")
	}
}
