package policy

import (
	"testing"

	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

func baseCfg(seed uint64) sim.Config {
	return sim.Config{
		Workload:  workload.CNNMNIST(),
		Params:    workload.S3,
		Data:      data.IdealIID,
		Env:       sim.EnvIdeal(),
		Seed:      seed,
		MaxRounds: 600,
	}
}

func TestTable4Clusters(t *testing.T) {
	clusters := Table4()
	if len(clusters) != 7 {
		t.Fatalf("Table4 has %d clusters, want 7 (C1..C7)", len(clusters))
	}
	for _, c := range clusters {
		if c.Total() != 20 {
			t.Errorf("%s totals %d devices, want 20", c.Name, c.Total())
		}
	}
	c1, _ := ClusterByName("C1")
	if c1.H != 20 || c1.M != 0 || c1.L != 0 {
		t.Errorf("C1 = %+v, want all high-end (Performance)", c1)
	}
	c7, _ := ClusterByName("C7")
	if c7.L != 20 || c7.H != 0 {
		t.Errorf("C7 = %+v, want all low-end (Power)", c7)
	}
	if _, ok := ClusterByName("C9"); ok {
		t.Error("unknown cluster name should not resolve")
	}
}

func TestClusterScaled(t *testing.T) {
	c, _ := ClusterByName("C3") // 10/5/5
	s := c.Scaled(10)
	if s.Total() != 10 {
		t.Fatalf("scaled total = %d, want 10", s.Total())
	}
	if s.H != 5 || s.M < 2 || s.L < 2 {
		t.Errorf("C3 scaled to 10 = %+v, want ~(5,2..3,2..3)", s)
	}
	same := c.Scaled(20)
	if same != c {
		t.Error("scaling to the same total should be identity")
	}
	up := c.Scaled(40)
	if up.Total() != 40 || up.H != 20 {
		t.Errorf("C3 scaled to 40 = %+v", up)
	}
}

func TestClusterScaledProperty(t *testing.T) {
	for _, c := range Table4() {
		for k := 1; k <= 40; k++ {
			s := c.Scaled(k)
			if s.Total() != k {
				t.Fatalf("%s scaled to %d totals %d", c.Name, k, s.Total())
			}
			if s.H < 0 || s.M < 0 || s.L < 0 {
				t.Fatalf("%s scaled to %d has negative tier count", c.Name, k)
			}
			// Tiers absent from the original stay absent.
			if c.H == 0 && s.H != 0 || c.M == 0 && s.M != 0 || c.L == 0 && s.L != 0 {
				t.Fatalf("%s scaled to %d invented a tier: %+v", c.Name, k, s)
			}
		}
	}
}

func TestRandomSelectsK(t *testing.T) {
	eng := sim.New(baseCfg(1))
	p := NewRandom(7)
	res := eng.Run(p)
	if !res.Converged {
		t.Errorf("random baseline should converge under ideal IID: %v", res)
	}
}

func TestStaticClusterComposition(t *testing.T) {
	eng := sim.New(baseCfg(2))
	pop := eng.Config().Population
	c, _ := ClusterByName("C3")
	p := NewStatic("C3", c, 3)
	_, res := eng.RunRound(p, 0, 0.1)
	var counts [device.NumCategories]int
	for _, dr := range res.Devices {
		if dr.Selected {
			counts[pop.Spec(dr.Index).Category]++
		}
	}
	if counts[device.High] != 10 || counts[device.Mid] != 5 || counts[device.Low] != 5 {
		t.Errorf("C3 selection mix = %v, want [10 5 5]", counts)
	}
}

func TestPerformanceAndPowerPolicies(t *testing.T) {
	eng := sim.New(baseCfg(3))
	pop := eng.Config().Population
	perf := NewPerformance(4)
	pow := NewPower(4)
	if perf.Name() != "Performance" || pow.Name() != "Power" {
		t.Error("policy names wrong")
	}
	_, resPerf := eng.RunRound(perf, 0, 0.1)
	_, resPow := eng.RunRound(pow, 0, 0.1)
	for _, dr := range resPerf.Devices {
		if dr.Selected && pop.Spec(dr.Index).Category != device.High {
			t.Error("Performance must select only high-end devices")
		}
	}
	for _, dr := range resPow.Devices {
		if dr.Selected && pop.Spec(dr.Index).Category != device.Low {
			t.Error("Power must select only low-end devices")
		}
	}
	// Performance rounds are faster; Power rounds draw less
	// participant power on average.
	if resPerf.RoundSec >= resPow.RoundSec {
		t.Errorf("Performance round (%.1fs) should beat Power round (%.1fs)",
			resPerf.RoundSec, resPow.RoundSec)
	}
	perfPower := resPerf.ParticipantEnergyJ / resPerf.RoundSec
	powPower := resPow.ParticipantEnergyJ / resPow.RoundSec
	if powPower >= perfPower {
		t.Errorf("Power draw %.1fW should be below Performance %.1fW", powPower, perfPower)
	}
}

func TestOraclesBeatRandomPPW(t *testing.T) {
	// Fig 1: judicious selection improves PPW substantially over
	// random selection under realistic field conditions.
	cfg := baseCfg(5)
	cfg.Env = sim.EnvField()
	random := sim.New(cfg).Run(NewRandom(7))
	op := sim.New(cfg).Run(NewOParticipant())
	ofl := sim.New(cfg).Run(NewOFL())
	if op.GlobalPPW() <= random.GlobalPPW() {
		t.Errorf("Oparticipant PPW %.3g should beat random %.3g", op.GlobalPPW(), random.GlobalPPW())
	}
	if ofl.GlobalPPW() <= random.GlobalPPW() {
		t.Errorf("OFL PPW %.3g should beat random %.3g", ofl.GlobalPPW(), random.GlobalPPW())
	}
}

func TestOFLBeatsOParticipant(t *testing.T) {
	// §6.1: execution-target optimization buys OFL additional energy
	// efficiency over participant selection alone (~19.8% in the
	// paper).
	cfg := baseCfg(6)
	cfg.Env = sim.EnvIdeal()
	op := sim.New(cfg).Run(NewOParticipant())
	ofl := sim.New(cfg).Run(NewOFL())
	if ofl.GlobalPPW() <= op.GlobalPPW() {
		t.Errorf("OFL PPW %.3g should beat Oparticipant %.3g via DVFS/target slack",
			ofl.GlobalPPW(), op.GlobalPPW())
	}
}

func TestOracleAvoidsNonIIDDevices(t *testing.T) {
	// Fig 11: under Non-IID(75%), 25% of devices hold IID data; the
	// oracle must favor them heavily and still converge.
	cfg := baseCfg(7)
	cfg.Data = data.NonIID75
	cfg.MaxRounds = 1000
	eng := sim.New(cfg)
	res := eng.Run(NewOParticipant())
	if !res.Converged {
		t.Errorf("oracle should converge at Non-IID(75%%): %v", res)
	}
}

func TestOracleConvergesAtFullNonIID(t *testing.T) {
	cfg := baseCfg(8)
	cfg.Data = data.NonIID100
	cfg.MaxRounds = 1000
	res := sim.New(cfg).Run(NewOParticipant())
	if !res.Converged {
		t.Errorf("oracle's stable high-quality cohort should converge at Non-IID(100%%): %v", res)
	}
}

func TestOracleShiftsTowardHighEndUnderInterference(t *testing.T) {
	// Fig 5(b): with on-device interference the optimal cluster moves
	// toward high-end devices (C1-like) because their absolute
	// throughput under contention stays above the straggler deadline.
	highShare := func(env sim.Env, seed uint64) float64 {
		cfg := baseCfg(seed)
		cfg.Env = env
		eng := sim.New(cfg)
		pop := eng.Config().Population
		p := NewOParticipant()
		high, total := 0, 0
		for round := 0; round < 30; round++ {
			_, res := eng.RunRound(p, round, 0.5)
			for _, dr := range res.Devices {
				if dr.Selected {
					total++
					if pop.Spec(dr.Index).Category == device.High {
						high++
					}
				}
			}
		}
		return float64(high) / float64(total)
	}
	ideal := highShare(sim.EnvIdeal(), 9)
	interf := highShare(sim.EnvInterference(), 9)
	if interf <= ideal {
		t.Errorf("high-end share under interference (%.2f) should exceed ideal (%.2f)", interf, ideal)
	}
}

func TestOracleShiftsTowardLowEndUnderWeakNetwork(t *testing.T) {
	// Fig 5(c): with weak signal, communication dominates and
	// low-power devices win PPW, so the optimal cluster moves toward
	// low-end (C5-like).
	lowShare := func(env sim.Env, seed uint64) float64 {
		cfg := baseCfg(seed)
		cfg.Env = env
		eng := sim.New(cfg)
		pop := eng.Config().Population
		p := NewOParticipant()
		low, total := 0, 0
		for round := 0; round < 30; round++ {
			_, res := eng.RunRound(p, round, 0.5)
			for _, dr := range res.Devices {
				if dr.Selected {
					total++
					if pop.Spec(dr.Index).Category == device.Low {
						low++
					}
				}
			}
		}
		return float64(low) / float64(total)
	}
	// Compare against the interference environment, where the oracle
	// retreats to high-end devices: weak networks push it back toward
	// low-power hardware.
	interf := lowShare(sim.EnvInterference(), 10)
	weak := lowShare(sim.EnvWeakNetwork(), 10)
	if weak <= interf {
		t.Errorf("low-end share under weak network (%.2f) should exceed interference (%.2f)", weak, interf)
	}
	// The paper's weak-network optimum is C5 (10 of 20 low-end); allow
	// seed-to-seed variation around that mix.
	if weak < 0.35 {
		t.Errorf("low-end share under weak network = %.2f, want C5-like (~0.5)", weak)
	}
}

func TestHeavyWorkFavorsHighEnd(t *testing.T) {
	// Fig 4: moving from S1 (heavy per-device work) to S3 (light)
	// shifts the optimal cluster away from high-end devices.
	highShare := func(params workload.GlobalParams, seed uint64) float64 {
		cfg := baseCfg(seed)
		cfg.Params = params
		eng := sim.New(cfg)
		pop := eng.Config().Population
		p := NewOParticipant()
		high, total := 0, 0
		for round := 0; round < 20; round++ {
			_, res := eng.RunRound(p, round, 0.5)
			for _, dr := range res.Devices {
				if dr.Selected {
					total++
					if pop.Spec(dr.Index).Category == device.High {
						high++
					}
				}
			}
		}
		return float64(high) / float64(total)
	}
	s1 := highShare(workload.S1, 11)
	s3 := highShare(workload.S3, 11)
	if s1 < s3 {
		t.Errorf("S1 high-end share (%.2f) should be at least S3's (%.2f)", s1, s3)
	}
}

func TestLSTMFavorsLowerTiersThanCNN(t *testing.T) {
	// §3.1: for memory-bound LSTM the tier gap shrinks, so the oracle
	// includes more mid/low-end devices than for compute-bound CNN.
	highShare := func(w *workload.Model, seed uint64) float64 {
		cfg := baseCfg(seed)
		cfg.Workload = w
		eng := sim.New(cfg)
		pop := eng.Config().Population
		p := NewOParticipant()
		high, total := 0, 0
		for round := 0; round < 20; round++ {
			_, res := eng.RunRound(p, round, 0.3)
			for _, dr := range res.Devices {
				if dr.Selected {
					total++
					if pop.Spec(dr.Index).Category == device.High {
						high++
					}
				}
			}
		}
		return float64(high) / float64(total)
	}
	cnn := highShare(workload.CNNMNIST(), 12)
	lstm := highShare(workload.LSTMShakespeare(), 12)
	if lstm > cnn {
		t.Errorf("LSTM high-end share (%.2f) should not exceed CNN's (%.2f)", lstm, cnn)
	}
}

func TestFedNovaAndFEDLTraits(t *testing.T) {
	fn := NewFedNova(1)
	fe := NewFEDL(1)
	if fn.Name() != "FedNova" || fe.Name() != "FEDL" {
		t.Error("comparator names wrong")
	}
	ft := fn.Traits()
	if !ft.PartialUpdates || !ft.NormalizedWeights || ft.DivergenceDamping <= 0 {
		t.Errorf("FedNova traits = %+v", ft)
	}
	et := fe.Traits()
	if !et.PartialUpdates || et.NormalizedWeights || et.DivergenceDamping <= ft.DivergenceDamping {
		t.Errorf("FEDL traits = %+v; should damp more than FedNova without normalization", et)
	}
}

func TestPriorWorkBeatsPlainRandomUnderHeterogeneity(t *testing.T) {
	// §6.3: FedNova and FEDL are robust to data heterogeneity relative
	// to plain FedAvg-Random.
	cfg := baseCfg(13)
	cfg.Data = data.NonIID75
	cfg.MaxRounds = 800
	random := sim.New(cfg).Run(NewRandom(7))
	fednova := sim.New(cfg).Run(NewFedNova(7))
	if fednova.FinalAccuracy <= random.FinalAccuracy {
		t.Errorf("FedNova final accuracy %.3f should beat random %.3f under Non-IID(75%%)",
			fednova.FinalAccuracy, random.FinalAccuracy)
	}
}

func TestBestActionRespectsDeadline(t *testing.T) {
	cfg := baseCfg(14)
	eng := sim.New(cfg)
	ctx, _ := eng.RunRound(NewRandom(3), 0, 0.1)
	// Generous deadline: the chosen action should be cheaper than
	// top-step CPU.
	comp, comm := ctx.Estimate(0, device.CPU, -1)
	deadline := 3 * (comp + comm)
	target, step := BestAction(ctx, 0, deadline)
	c2, m2 := ctx.Estimate(0, target, step)
	if c2+m2 > deadline {
		t.Errorf("chosen action misses the deadline: %.1f > %.1f", c2+m2, deadline)
	}
	eBest := ctx.EstimateEnergy(0, target, step, c2+m2)
	eTop := ctx.EstimateEnergy(0, device.CPU, ctx.TopStep(0, device.CPU), comp+comm)
	if eBest > eTop {
		t.Errorf("slack-optimized action energy %.1fJ should not exceed top-step %.1fJ", eBest, eTop)
	}
	// Impossible deadline: falls back to the fastest action.
	target, step = BestAction(ctx, 0, 0.001)
	cf, mf := ctx.Estimate(0, target, step)
	if cf+mf > comp+comm+1e-9 {
		t.Error("with an impossible deadline, BestAction should return the fastest option")
	}
}

func TestOracleDeterminism(t *testing.T) {
	cfg := baseCfg(15)
	eng1, eng2 := sim.New(cfg), sim.New(cfg)
	r1 := eng1.Run(NewOFL())
	r2 := eng2.Run(NewOFL())
	if r1.EnergyToTargetJ != r2.EnergyToTargetJ || r1.Rounds != r2.Rounds {
		t.Error("oracle runs with equal seeds must be identical")
	}
}

func TestOracleSelectSteadyStateAllocFree(t *testing.T) {
	// The oracles' exhaustive per-round candidate search runs entirely
	// in reused scratch: once warmed, Select must not allocate.
	eng := sim.New(sim.Config{Seed: 15})
	ofl := NewOFL()
	ctx, _ := eng.RunRound(ofl, 0, 0.5)
	if avg := testing.AllocsPerRun(50, func() { _ = ofl.Select(ctx) }); avg != 0 {
		t.Errorf("steady-state OFL.Select allocated %.2f/run, want 0", avg)
	}
	op := NewOParticipant()
	if avg := testing.AllocsPerRun(50, func() { _ = op.Select(ctx) }); avg != 0 {
		t.Errorf("steady-state OParticipant.Select allocated %.2f/run, want 0", avg)
	}
}
