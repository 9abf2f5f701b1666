package sim_test

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"autofl/internal/battery"
	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

func mustPopulation(tb testing.TB, high, mid, low int) *device.Population {
	tb.Helper()
	p, err := device.NewPopulation(high, mid, low)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// tieredPopulation builds an n-device population in the paper's
// 15/35/50 tier mix.
func tieredPopulation(tb testing.TB, n int) *device.Population {
	tb.Helper()
	high, mid := n*15/100, n*35/100
	return mustPopulation(tb, high, mid, n-high-mid)
}

func popConfig(tb testing.TB, n, sample int, seed uint64) sim.Config {
	tb.Helper()
	return sim.Config{
		Workload:   workload.CNNMNIST(),
		Params:     workload.S3,
		Population: tieredPopulation(tb, n),
		Sample:     sample,
		Data:       data.NonIID50,
		Env:        sim.EnvField(),
		Seed:       seed,
		MaxRounds:  60,
	}
}

func mustEngine(tb testing.TB, cfg sim.Config) *sim.Engine {
	tb.Helper()
	e, err := sim.NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// atProcs returns f() computed under runtime.GOMAXPROCS(n) and then
// restores the previous setting. GOMAXPROCS is the engine's only
// parallelism lever: NewEngine fixes the observe pass's shard count at
// min(GOMAXPROCS, 16) and the partition's worker count at GOMAXPROCS.
// No test in the module calls t.Parallel, so no other test sees the
// change.
func atProcs[T any](n int, f func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return f()
}

// runAtProcs runs cfg to completion under policy.NewRandom(3) with
// GOMAXPROCS set to procs while the engine is built and run.
func runAtProcs(tb testing.TB, procs int, cfg sim.Config) *sim.Result {
	tb.Helper()
	return atProcs(procs, func() *sim.Result { return mustEngine(tb, cfg).Run(policy.NewRandom(3)) })
}

func TestSampledPopulationDeterminism(t *testing.T) {
	cfg := popConfig(t, 3000, 600, 11)
	a := mustEngine(t, cfg).Run(policy.NewRandom(3))
	b := mustEngine(t, cfg).Run(policy.NewRandom(3))
	if !reflect.DeepEqual(a, b) {
		t.Error("same-seed sampled runs differ")
	}
}

// TestSampledShardInvariance pins the keyed-stream design: the shard
// count, which follows GOMAXPROCS, sets throughput, never output. The
// pool exceeds the serial threshold so the 4-shard run really runs
// parallel.
func TestSampledShardInvariance(t *testing.T) {
	cfg := popConfig(t, 5000, 2048, 23)
	if !reflect.DeepEqual(runAtProcs(t, 1, cfg), runAtProcs(t, 4, cfg)) {
		t.Error("GOMAXPROCS=1 and GOMAXPROCS=4 runs differ")
	}
}

// TestSampleClampsToPopulation: a Sample beyond the population size,
// and a zero Sample, behave exactly as Sample == n.
func TestSampleClampsToPopulation(t *testing.T) {
	exact := mustEngine(t, popConfig(t, 500, 500, 7)).Run(policy.NewRandom(3))
	for _, sample := range []int{10_000, 0} {
		got := mustEngine(t, popConfig(t, 500, sample, 7)).Run(policy.NewRandom(3))
		if !reflect.DeepEqual(got, exact) {
			t.Errorf("Sample=%d differs from Sample == n", sample)
		}
	}
}

// TestConfigValidation pins the typed-error surface of NewEngine: each
// degenerate config fails with a ConfigError naming the field, instead
// of an index panic rounds later.
func TestConfigValidation(t *testing.T) {
	pop := mustPopulation(t, 3, 7, 10)
	cases := []struct {
		name  string
		cfg   sim.Config
		field string
	}{
		{"empty fleet", sim.Config{Population: &device.Population{}}, "Population"},
		{"K exceeds fleet", sim.Config{
			Population: mustPopulation(t, 1, 1, 1),
			Params:     workload.GlobalParams{B: 20, E: 5, K: 5},
		}, "Params.K"},
		{"non-positive K", sim.Config{
			Params: workload.GlobalParams{B: 20, E: 5, K: -1},
		}, "Params.K"},
		{"negative B", sim.Config{
			Params: workload.GlobalParams{B: -1, E: 5, K: 5},
		}, "Params"},
		{"negative Sample", sim.Config{Population: pop, Sample: -1}, "Sample"},
		{"Sample below K", sim.Config{
			Population: pop,
			Params:     workload.GlobalParams{B: 20, E: 5, K: 10},
			Sample:     5,
		}, "Sample"},
		{"Sample below K on the default fleet", sim.Config{Sample: 5}, "Sample"},
		{"K exceeds population", sim.Config{
			Population: pop,
			Params:     workload.GlobalParams{B: 20, E: 5, K: 50},
		}, "Params.K"},
		{"NaN target", sim.Config{TargetAccuracy: math.NaN()}, "TargetAccuracy"},
		{"infinite target", sim.Config{TargetAccuracy: math.Inf(1)}, "TargetAccuracy"},
		{"NaN straggler factor", sim.Config{StragglerFactor: math.NaN()}, "StragglerFactor"},
		{"-Inf straggler factor", sim.Config{StragglerFactor: math.Inf(-1)}, "StragglerFactor"},
		{"NaN battery capacity", sim.Config{Battery: &battery.Spec{CapacityJ: math.NaN()}}, "Battery.CapacityJ"},
		{"infinite battery capacity", sim.Config{Battery: &battery.Spec{CapacityJ: math.Inf(1)}}, "Battery.CapacityJ"},
		{"battery capacity beyond float32", sim.Config{Battery: &battery.Spec{CapacityJ: 1e300}}, "Battery.CapacityJ"},
		{"NaN battery threshold", sim.Config{Battery: &battery.Spec{CapacityJ: 2000, ThresholdJ: math.NaN()}}, "Battery.ThresholdJ"},
		{"NaN initial charge", sim.Config{Battery: &battery.Spec{CapacityJ: 2000, InitialFracLo: math.NaN(), InitialFracHi: 0.9}}, "Battery.InitialFrac"},
		{"infinite initial charge", sim.Config{Battery: &battery.Spec{CapacityJ: 2000, InitialFracHi: math.Inf(1)}}, "Battery.InitialFrac"},
		{"infinite harvest", sim.Config{Battery: &battery.Spec{CapacityJ: 2000, Harvest: battery.ProfileSolar, HarvestW: math.Inf(1)}}, "Battery.HarvestW"},
		{"NaN charger fraction", sim.Config{Battery: &battery.Spec{CapacityJ: 2000, Harvest: battery.ProfileCharger, ChargerFrac: math.NaN()}}, "Battery.ChargerFrac"},
		{"-Inf day", sim.Config{Battery: &battery.Spec{CapacityJ: 2000, Harvest: battery.ProfileSolar, DaySec: math.Inf(-1)}}, "Battery.DaySec"},
		{"subnormal day", sim.Config{Battery: &battery.Spec{CapacityJ: 2000, Harvest: battery.ProfileSolar, DaySec: 1e-320}}, "Battery.DaySec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sim.NewEngine(tc.cfg)
			if err == nil {
				t.Fatal("degenerate config accepted")
			}
			var ce *sim.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("error names field %q, want %q (%v)", ce.Field, tc.field, err)
			}
		})
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with an invalid config did not panic")
		}
	}()
	sim.New(sim.Config{Population: &device.Population{}})
}

// TestDeviceSnapshotConservesEnergy pins the O(1) cumulative-energy
// reconstruction: summing DeviceSnapshot over the whole population
// must equal the summed per-round fleet energy the trace reports, on a
// sampled population and on the default 200-device fleet alike.
func TestDeviceSnapshotConservesEnergy(t *testing.T) {
	sampled := popConfig(t, 400, 128, 31)
	sampled.MaxRounds = 40
	for _, cfg := range []sim.Config{sampled, stepperConfig(31, 40)} {
		eng := mustEngine(t, cfg)
		res := eng.Run(policy.NewRandom(9))
		n := eng.Config().Population.Len()

		var traced float64
		for _, e := range res.Trace.EnergyJ {
			traced += e
		}
		var snap float64
		for i := 0; i < n; i++ {
			_, _, e, ok := eng.DeviceSnapshot(i)
			if !ok {
				t.Fatalf("N=%d: DeviceSnapshot(%d) not ok", n, i)
			}
			snap += e
		}
		if diff := math.Abs(snap-traced) / traced; diff > 1e-9 {
			t.Errorf("N=%d: snapshot energy %v vs traced %v (rel diff %v)", n, snap, traced, diff)
		}

		if _, _, _, ok := eng.DeviceSnapshot(-1); ok {
			t.Errorf("N=%d: negative index reported ok", n)
		}
		if _, _, _, ok := eng.DeviceSnapshot(n); ok {
			t.Errorf("N=%d: out-of-range index reported ok", n)
		}
	}
}

// steadyRoundAllocs builds cfg's engine under GOMAXPROCS procs, steps
// warmup rounds, and returns the mean allocations of one more round.
// The run neither converges nor reaches its horizon in the window.
func steadyRoundAllocs(t *testing.T, procs int, cfg sim.Config, pol sim.Policy, warmup int) float64 {
	t.Helper()
	cfg.MaxRounds = 1000
	cfg.TargetAccuracy = 1 // unreachable: the run never ends early
	run := atProcs(procs, func() *sim.Run { return mustEngine(t, cfg).Start(pol) })
	for i := 0; i < warmup; i++ {
		if !run.Step() {
			t.Fatal("run ended during warmup")
		}
	}
	return testing.AllocsPerRun(100, func() {
		if !run.Step() {
			t.Fatal("run ended mid-measurement")
		}
	})
}

// TestPopulationRoundAllocs pins the steady-state round at zero
// allocations: sampled (Sample < N) and exhaustive (Sample == N) at
// 2,000 devices, where at GOMAXPROCS 1 even the 2,000-candidate pool
// above the fan-out threshold is observed serially, and at the shape
// perfbench's pop1m workloads run — a 4,096-candidate pool, sync
// FedAvg-Random and async with the solar battery and Battery-Weighted,
// here over 20,000 devices — at GOMAXPROCS 1, 2 and 4, where the
// fanned-out pass runs on the engine's persistent observe workers and
// draws the next pool ahead.
func TestPopulationRoundAllocs(t *testing.T) {
	pop1mSync := popConfig(t, 20_000, 4096, 3)
	pop1mSync.Data = data.NonIID100
	pop1mAsync := pop1mSync
	pop1mAsync.Mode = sim.ModeAsync
	pop1mAsync.Battery = &battery.Spec{CapacityJ: 2000, Harvest: battery.ProfileSolar}
	random := func() sim.Policy { return policy.NewRandom(9) }
	cases := []struct {
		name   string
		cfg    sim.Config
		pol    func() sim.Policy
		warmup int
		procs  []int
	}{
		{"Sample=512", popConfig(t, 2000, 512, 3), random, 3, []int{1}},
		{"Sample=2000", popConfig(t, 2000, 2000, 3), random, 3, []int{1}},
		{"pop1m-sync shape", pop1mSync, random, 3, []int{1, 2, 4}},
		{"pop1m-async-battery shape", pop1mAsync, func() sim.Policy { return policy.NewBatteryWeighted(9) }, 20, []int{1, 2, 4}},
	}
	for _, tc := range cases {
		for _, procs := range tc.procs {
			if avg := steadyRoundAllocs(t, procs, tc.cfg, tc.pol(), tc.warmup); avg != 0 {
				t.Errorf("%s at GOMAXPROCS=%d: steady-state round allocates %v objects, want 0",
					tc.name, procs, avg)
			}
		}
	}
}

// TestPendingPoolShardInvariance pins the next-round draw across run
// boundaries: a Run that ends leaves its engine with the next pool
// already drawn, and a second Start on the same engine, then RunRound,
// must observe exactly the pools a serial engine draws then. Each
// sequence runs on one engine, at GOMAXPROCS 2 and 4 against 1.
func TestPendingPoolShardInvariance(t *testing.T) {
	cfg := popConfig(t, 5000, 2048, 41)
	cfg.MaxRounds = 4
	cfg.TargetAccuracy = 1 // each Run ends at its horizon
	sequence := func(procs int) []any {
		return atProcs(procs, func() []any {
			e := mustEngine(t, cfg)
			out := []any{e.Run(policy.NewRandom(3)), e.Run(policy.NewRandom(4))}
			for r := 0; r < 3; r++ {
				ctx, res := e.RunRound(policy.NewRandom(5), r, 0.5)
				out = append(out, ctx.Devices, res)
			}
			return out
		})
	}
	serial := sequence(1)
	for _, procs := range []int{2, 4} {
		got := sequence(procs)
		for i := range serial {
			if !reflect.DeepEqual(serial[i], got[i]) {
				t.Errorf("GOMAXPROCS=%d: step %d of the run, run, round sequence differs from GOMAXPROCS=1", procs, i)
			}
		}
	}
}

// TestObservePoolExitsWithEngine pins the observe workers' lifetime. A
// fanned-out engine starts one worker per shard, and they exit once
// the engine is collected, next-round draw pending or not. The default
// 200-device fleet, and a pop1m-shape engine at GOMAXPROCS 1, observe
// serially and start no goroutine at all.
func TestObservePoolExitsWithEngine(t *testing.T) {
	// settle collects until the goroutine count is at most want, or
	// has not moved for 20 collections in a row, or 10 s pass, and
	// returns the count.
	settle := func(want int) int {
		deadline := time.Now().Add(10 * time.Second)
		n, still := runtime.NumGoroutine(), 0
		for n > want && still < 20 && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
			prev := n
			if n = runtime.NumGoroutine(); n == prev {
				still++
			} else {
				still = 0
			}
		}
		return n
	}
	// The baseline waits out the workers of earlier tests' engines.
	base := settle(0)
	pop := popConfig(t, 20_000, 4096, 3)
	pop.MaxRounds = 3
	run := func(procs int, cfg sim.Config) *sim.Engine {
		return atProcs(procs, func() *sim.Engine {
			e := mustEngine(t, cfg)
			e.Run(policy.NewRandom(9))
			return e
		})
	}

	for _, tc := range []struct {
		name  string
		procs int
		cfg   sim.Config
	}{
		{"default fleet at GOMAXPROCS 2", 2, stepperConfig(3, 3)},
		{"pop1m shape at GOMAXPROCS 1", 1, pop},
	} {
		e := run(tc.procs, tc.cfg)
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines while the engine lives, want at most %d", tc.name, n, base)
		}
		runtime.KeepAlive(e)
	}

	e := run(2, pop)
	if n := runtime.NumGoroutine(); n < base+2 {
		t.Fatalf("%d goroutines while a 2-shard engine lives, want at least %d: no observe workers", n, base+2)
	}
	runtime.KeepAlive(e)
	for i := 0; i < 3; i++ {
		run(2, pop)
	}
	if n := settle(base); n > base {
		t.Errorf("%d goroutines after the engines were dropped and collected, want at most %d", n, base)
	}
}

// TestMillionDeviceMemoryBudget is the tentpole's resident-state pin:
// one million devices within 64 bytes each, measured both by the
// engine's own accounting and by the heap.
func TestMillionDeviceMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-device smoke skipped in -short")
	}
	const n = 1_000_000
	cfg := popConfig(t, n, 4096, 5)
	cfg.Data = data.IdealIID // partition generation dominates otherwise
	cfg.MaxRounds = 3

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng := mustEngine(t, cfg)
	res := eng.Run(policy.NewRandom(1))
	runtime.GC()
	runtime.ReadMemStats(&after)

	if res.Rounds != 3 {
		t.Fatalf("executed %d rounds, want 3", res.Rounds)
	}
	if got := eng.PopulationMemoryBytes(); got > 48*n {
		t.Errorf("accounted resident state %d B = %.1f B/device, budget 48", got, float64(got)/n)
	}
	if delta := int64(after.HeapAlloc) - int64(before.HeapAlloc); delta > 64*n {
		t.Errorf("heap grew %d B = %.1f B/device, budget 64", delta, float64(delta)/n)
	}
	runtime.KeepAlive(eng)
}
