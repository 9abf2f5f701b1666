// Benchmarks: one entry point per reproduced table/figure (see the
// experiment table in README.md), plus microbenchmarks for the §6.4
// overhead analysis. Figure benchmarks exercise the same code paths as
// cmd/autofl-bench at a reduced scale (smaller fleet, shorter horizon)
// so `go test -bench=.` stays fast; `go run ./cmd/autofl-bench` prints
// the full-scale numbers.
package autofl

import (
	"context"
	"fmt"
	"testing"

	"autofl/internal/core"
	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/fedavg"
	"autofl/internal/policy"
	"autofl/internal/qlearn"
	"autofl/internal/rng"
	"autofl/internal/sim"
	"autofl/internal/sweep"
	"autofl/internal/sweep/cache"
	"autofl/internal/workload"
)

// benchPopulation is the reduced-scale 40-device fleet.
var benchPopulation, _ = device.NewPopulation(6, 14, 20)

// benchConfig is a reduced-scale run: 40-device fleet, 60 rounds.
func benchConfig(seed uint64) sim.Config {
	return sim.Config{
		Workload:       workload.CNNMNIST(),
		Params:         workload.GlobalParams{B: 16, E: 5, K: 8},
		Population:     benchPopulation,
		Data:           data.IdealIID,
		Env:            sim.EnvField(),
		Seed:           seed,
		MaxRounds:      60,
		TargetAccuracy: 1.1, // run the fixed horizon
	}
}

func benchRun(b *testing.B, mk func(i int) sim.Policy, mut func(*sim.Config)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(uint64(i + 1))
		if mut != nil {
			mut(&cfg)
		}
		res := sim.New(cfg).Run(mk(i))
		if res.Rounds == 0 {
			b.Fatal("run produced no rounds")
		}
	}
}

// BenchmarkFig01Headroom — E1: random vs OFL PPW headroom.
func BenchmarkFig01Headroom(b *testing.B) {
	benchRun(b, func(i int) sim.Policy { return policy.NewOFL() }, nil)
}

// BenchmarkFig04GlobalParams — E2: cluster policies across settings.
func BenchmarkFig04GlobalParams(b *testing.B) {
	c3, _ := policy.ClusterByName("C3")
	benchRun(b, func(i int) sim.Policy { return policy.NewStatic("C3", c3, uint64(i)) },
		func(cfg *sim.Config) { cfg.Params = workload.GlobalParams{B: 32, E: 10, K: 8} })
}

// BenchmarkFig05RuntimeVariance — E3: cluster policy under interference.
func BenchmarkFig05RuntimeVariance(b *testing.B) {
	benchRun(b, func(i int) sim.Policy { return policy.NewPerformance(uint64(i)) },
		func(cfg *sim.Config) { cfg.Env = sim.EnvInterference() })
}

// BenchmarkFig06DataHeterogeneity — E4: random selection on non-IID data.
func BenchmarkFig06DataHeterogeneity(b *testing.B) {
	benchRun(b, func(i int) sim.Policy { return policy.NewRandom(uint64(i)) },
		func(cfg *sim.Config) { cfg.Data = data.NonIID75 })
}

// BenchmarkFig08Overview — E5: the AutoFL controller end to end.
func BenchmarkFig08Overview(b *testing.B) {
	benchRun(b, func(i int) sim.Policy { return core.New(core.DefaultOptions(uint64(i))) }, nil)
}

// BenchmarkFig09GlobalParamAdaptability — E6: AutoFL at S1-heavy work.
func BenchmarkFig09GlobalParamAdaptability(b *testing.B) {
	benchRun(b, func(i int) sim.Policy { return core.New(core.DefaultOptions(uint64(i))) },
		func(cfg *sim.Config) { cfg.Params = workload.GlobalParams{B: 32, E: 10, K: 8} })
}

// BenchmarkFig10VarianceAdaptability — E7: AutoFL under interference.
func BenchmarkFig10VarianceAdaptability(b *testing.B) {
	benchRun(b, func(i int) sim.Policy { return core.New(core.DefaultOptions(uint64(i))) },
		func(cfg *sim.Config) { cfg.Env = sim.EnvInterference() })
}

// BenchmarkFig11HeterogeneityAdaptability — E8: AutoFL on non-IID data.
func BenchmarkFig11HeterogeneityAdaptability(b *testing.B) {
	benchRun(b, func(i int) sim.Policy { return core.New(core.DefaultOptions(uint64(i))) },
		func(cfg *sim.Config) { cfg.Data = data.NonIID100 })
}

// BenchmarkFig12PredictionAccuracy — E9: AutoFL + oracle per round.
func BenchmarkFig12PredictionAccuracy(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(3)
	eng := sim.New(cfg)
	auto := core.New(core.DefaultOptions(4))
	oracle := policy.NewOFL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, res := eng.RunRound(auto, i, 0.5)
		auto.Feedback(ctx, res)
		_ = oracle.Select(ctx)
	}
}

// BenchmarkFig13PriorWork — E10: FedNova aggregation traits.
func BenchmarkFig13PriorWork(b *testing.B) {
	benchRun(b, func(i int) sim.Policy { return policy.NewFedNova(uint64(i)) },
		func(cfg *sim.Config) { cfg.Data = data.NonIID50 })
}

// BenchmarkFig14PriorWorkStress — E11: FEDL under weak network.
func BenchmarkFig14PriorWorkStress(b *testing.B) {
	benchRun(b, func(i int) sim.Policy { return policy.NewFEDL(uint64(i)) },
		func(cfg *sim.Config) { cfg.Env = sim.EnvWeakNetwork() })
}

// BenchmarkFig15RewardConvergence — E12: shared-table controller.
func BenchmarkFig15RewardConvergence(b *testing.B) {
	benchRun(b, func(i int) sim.Policy {
		opts := core.DefaultOptions(uint64(i))
		opts.SharedTables = true
		return core.New(opts)
	}, nil)
}

// BenchmarkOverheadQTableOps — E13: the §6.4 controller-step costs.
// The paper reports ~10.5us for selection and ~22.1us for the update
// on 200 devices; per-op means here correspond to those steps.
func BenchmarkOverheadQTableOps(b *testing.B) {
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		cfg := benchConfig(5)
		cfg.Population = nil // the default: paper-scale 200 devices
		cfg.Params.K = 20
		eng := sim.New(cfg)
		ctrl := core.New(core.DefaultOptions(6))
		ctx, res := eng.RunRound(ctrl, 0, 0.5)
		ctrl.Feedback(ctx, res)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ctrl.Select(ctx)
		}
	})
	b.Run("update", func(b *testing.B) {
		b.ReportAllocs()
		table := qlearn.NewDense(6, rng.New(7)) // 2 targets × 3 DVFS levels
		row, rowNext := table.Touch(17), table.Touch(23)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			table.UpdateAt(row, 2, 1.5, rowNext, 2, 0.9, 0.1)
		}
	})
}

// BenchmarkControllerSelect isolates the AutoFL decision step at paper
// scale (200 devices, K=20): packed state encoding, dense-table
// argmax, ranking. Steady state must report 0 allocs/op (pinned by
// TestControllerSteadyStateAllocFree).
func BenchmarkControllerSelect(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(5)
	cfg.Population = nil // the default: paper-scale 200 devices
	cfg.Params.K = 20
	eng := sim.New(cfg)
	ctrl := core.New(core.DefaultOptions(6))
	ctx, res := eng.RunRound(ctrl, 0, 0.5)
	ctrl.Feedback(ctx, res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ctrl.Select(ctx)
	}
}

// BenchmarkControllerFeedback isolates the AutoFL measurement step:
// Eq (5)–(7) reward computation and staging for the next update.
func BenchmarkControllerFeedback(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(5)
	cfg.Population = nil // the default: paper-scale 200 devices
	cfg.Params.K = 20
	eng := sim.New(cfg)
	ctrl := core.New(core.DefaultOptions(6))
	ctx, res := eng.RunRound(ctrl, 0, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Feedback(ctx, res)
	}
}

// BenchmarkEnergyModelError — E14: the phase-aware energy estimator.
func BenchmarkEnergyModelError(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(8)
	eng := sim.New(cfg)
	ctx, _ := eng.RunRound(policy.NewRandom(9), 0, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ctx.EstimateEnergy(i%40, device.CPU, -1, 60)
	}
}

// BenchmarkTable4Clusters — E15: one static-cluster round at paper
// scale (200 devices).
func BenchmarkTable4Clusters(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(10)
	cfg.Population = nil // the default: paper-scale 200 devices
	cfg.Params.K = 20
	eng := sim.New(cfg)
	c3, _ := policy.ClusterByName("C3")
	p := policy.NewStatic("C3", c3, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = eng.RunRound(p, i, 0.5)
	}
}

// BenchmarkHyperparamSensitivity — E16: a low-learning-rate variant.
func BenchmarkHyperparamSensitivity(b *testing.B) {
	benchRun(b, func(i int) sim.Policy {
		opts := core.DefaultOptions(uint64(i))
		opts.LearningRate = 0.1
		return core.New(opts)
	}, nil)
}

// BenchmarkRealFedAvg — E17: one genuine federated round (pure-Go SGD
// across 8 clients).
func BenchmarkRealFedAvg(b *testing.B) {
	b.ReportAllocs()
	cfg := fedavg.DefaultConfig()
	cfg.K = 8
	tr, err := fedavg.NewTrainer(cfg, data.ExactPackedPartition(cfg.Seed, data.IdealIID, 16, cfg.Spec.Classes, 80))
	if err != nil {
		b.Fatal(err)
	}
	sel := fedavg.RandomSelector(cfg.K, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Round(i, sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRound is the core round-engine step at paper scale —
// the unit every figure above composes.
func BenchmarkEngineRound(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(13)
	cfg.Population = nil // the default: paper-scale 200 devices
	cfg.Params.K = 20
	eng := sim.New(cfg)
	p := policy.NewRandom(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = eng.RunRound(p, i, 0.5)
	}
}

// benchSweepGrid is a policy×environment grid at bench scale: 8 cells
// of 60-round, 40-device runs.
func benchSweepGrid(seed uint64) sweep.Grid {
	return sweep.Grid{
		Envs:     []string{"ideal", "field"},
		Policies: []string{"FedAvg-Random", "Performance", "Power", "AutoFL"},
		Seed:     seed,
	}
}

// benchSweepRunner executes sweep cells at the reduced bench scale
// (the full-scale runner lives in the root package's SweepRunner);
// traced attaches the run's trace payload, which the cache needs.
func benchSweepRunner(traced bool) sweep.Runner {
	return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		cfg := benchConfig(seed)
		switch c.Env {
		case "ideal":
			cfg.Env = sim.EnvIdeal()
		case "field":
			cfg.Env = sim.EnvField()
		default:
			return sweep.Outcome{}, fmt.Errorf("unknown env %q", c.Env)
		}
		var p sim.Policy
		switch c.Policy {
		case "FedAvg-Random":
			p = policy.NewRandom(seed)
		case "Performance":
			p = policy.NewPerformance(seed)
		case "Power":
			p = policy.NewPower(seed)
		case "AutoFL":
			p = core.New(core.DefaultOptions(seed))
		default:
			return sweep.Outcome{}, fmt.Errorf("unknown policy %q", c.Policy)
		}
		res := sim.New(cfg).Run(p)
		out := sweep.OutcomeOf(res)
		if traced {
			out.Trace = sweep.NewRunTrace(res)
		}
		return out, nil
	}
}

func benchSweep(b *testing.B, parallel int) {
	b.Helper()
	b.ReportAllocs()
	run := benchSweepRunner(false)
	for i := 0; i < b.N; i++ {
		g := benchSweepGrid(uint64(i + 1))
		store, err := sweep.Run(context.Background(), g, run, sweep.Options{Parallel: parallel})
		if err != nil {
			b.Fatal(err)
		}
		if store.Len() != g.Size() {
			b.Fatalf("sweep ran %d of %d cells", store.Len(), g.Size())
		}
	}
	reportCellsPerSec(b, benchSweepGrid(1).Size())
}

// reportCellsPerSec converts elapsed wall-clock into the sweep
// engine's throughput unit, cells completed per second.
func reportCellsPerSec(b *testing.B, cellsPerOp int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(cellsPerOp*b.N)/s, "cells/sec")
	}
}

// BenchmarkSweepSerial — E18: the policy×environment sweep on one
// worker, the -parallel=1 reference the engine must match byte for
// byte.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel — E18: the same sweep on GOMAXPROCS workers;
// the parallel/serial cells-per-second ratio is the engine's speedup
// on this machine.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkSweepWarmCache — E18: the same sweep resumed against a
// fully populated result cache. Each iteration reopens the cache
// (reloading its JSONL store) and runs the grid, executing zero cells;
// the warm/cold cells-per-second ratio is the resume speedup.
func BenchmarkSweepWarmCache(b *testing.B) {
	b.ReportAllocs()
	g := benchSweepGrid(1)
	sig := cache.Signature{GridSeed: g.Seed, Rounds: 60}
	dir := b.TempDir()
	run := benchSweepRunner(true) // the cache stores only traced runs

	warm, err := cache.Open(dir, sig)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sweep.Run(context.Background(), g, warm.Runner(run), sweep.Options{}); err != nil {
		b.Fatal(err)
	}
	if err := warm.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cache.Open(dir, sig)
		if err != nil {
			b.Fatal(err)
		}
		store, err := sweep.Run(context.Background(), g, c.Runner(run), sweep.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if store.Len() != g.Size() {
			b.Fatalf("sweep ran %d of %d cells", store.Len(), g.Size())
		}
		if s := c.Stats(); s.Misses != 0 {
			b.Fatalf("warm cache missed %d cells", s.Misses)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
	reportCellsPerSec(b, g.Size())
}

// BenchmarkOracleSelect isolates the OFL oracle's per-round search.
func BenchmarkOracleSelect(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig(15)
	cfg.Population = nil // the default: paper-scale 200 devices
	cfg.Params.K = 20
	eng := sim.New(cfg)
	ctx, _ := eng.RunRound(policy.NewRandom(16), 0, 0.5)
	oracle := policy.NewOFL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = oracle.Select(ctx)
	}
}
