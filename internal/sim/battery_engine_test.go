package sim_test

import (
	"runtime"
	"testing"

	"autofl/internal/battery"
	"autofl/internal/data"
	"autofl/internal/policy"
	"autofl/internal/sim"
)

// battPopConfig is popConfig with the battery subsystem attached.
func battPopConfig(tb testing.TB, n, sample, shards int, seed uint64) sim.Config {
	tb.Helper()
	cfg := popConfig(tb, n, sample, shards, seed)
	cfg.Battery = &battery.Spec{CapacityJ: 2000}
	return cfg
}

// TestBatteryRoundAllocs pins the zero-alloc steady state of the
// battery-enabled sampled round path: the lazy settle pass, the
// availability gate, and the incremental Jain moments must all run on
// preallocated state (serial shards — the parallel observe pass spawns
// goroutines by design, which the benchmark covers instead).
func TestBatteryRoundAllocs(t *testing.T) {
	cfg := battPopConfig(t, 2000, 512, 1, 3)
	// A large cell so depletion never empties the candidate set during
	// the measurement window.
	cfg.Battery = &battery.Spec{CapacityJ: 1e7, Harvest: battery.ProfileSolar}
	cfg.MaxRounds = 1000
	cfg.TargetAccuracy = 1 // unreachable: the run never ends early
	run := mustEngine(t, cfg).Start(policy.NewRandom(9))
	for i := 0; i < 3; i++ {
		if !run.Step() {
			t.Fatal("run ended during warmup")
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if !run.Step() {
			t.Fatal("run ended mid-measurement")
		}
	})
	if avg != 0 {
		t.Errorf("steady-state battery round allocates %v objects, want 0", avg)
	}
}

// TestBatteryMillionDeviceMemoryBudget extends the resident-state pin
// to battery-enabled populations: the subsystem adds 12 bytes per
// device (packed charge + settle time + participation count), so one
// million devices stay within 60 accounted bytes each.
func TestBatteryMillionDeviceMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-device smoke skipped in -short")
	}
	const n = 1_000_000
	cfg := battPopConfig(t, n, 4096, 0, 5)
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
	if res.Battery == nil {
		t.Fatal("battery-enabled run reported no battery stats")
	}
	if got := eng.PopulationMemoryBytes(); got > 60*n {
		t.Errorf("accounted resident state %d B = %.1f B/device, budget 60", got, float64(got)/n)
	}
	if delta := int64(after.HeapAlloc) - int64(before.HeapAlloc); delta > 80*n {
		t.Errorf("heap grew %d B = %.1f B/device, budget 80", delta, float64(delta)/n)
	}
	runtime.KeepAlive(eng)
}

// TestBatteryGatesEveryAggregationMode pins availability gating across
// the three regimes: under a small battery cell, every mode eventually
// drops devices below the participation threshold, reports them
// unavailable in the round trace, and never exceeds the available
// count with its participant count. Whether a single seed's 80 rounds
// drain any candidate below the threshold is itself random (most seeds
// do, a minority never do), so each mode pools gatingSeeds seeds:
// every run must honour the invariants, and gating must engage in at
// least one of them.
func TestBatteryGatesEveryAggregationMode(t *testing.T) {
	const gatingSeeds = 8
	for _, mode := range []sim.AggregationMode{sim.ModeSync, sim.ModeAsync, sim.ModeSemiAsync} {
		t.Run(string(mode), func(t *testing.T) {
			gatedSeeds := 0
			for seed := uint64(1); seed <= gatingSeeds; seed++ {
				cfg := battPopConfig(t, 600, 200, 1, seed)
				// A cell small enough that the candidate pool visibly
				// thins over the horizon.
				cfg.Battery = &battery.Spec{CapacityJ: 500}
				cfg.Mode = mode
				cfg.MaxRounds = 80
				cfg.TargetAccuracy = 1
				run := mustEngine(t, cfg).Start(policy.NewRandom(7))
				gated := false
				for run.Step() {
					info := run.Last()
					if info.BatteryAvailable > 200 {
						t.Fatalf("seed %d round %d reports %d available of a 200-candidate view", seed, info.Round, info.BatteryAvailable)
					}
					if info.Participants > info.BatteryAvailable {
						t.Fatalf("seed %d round %d selected %d participants with only %d available",
							seed, info.Round, info.Participants, info.BatteryAvailable)
					}
					if info.BatteryAvailable < 200 {
						gated = true
					}
				}
				res := run.Result()
				if res.Battery == nil {
					t.Fatalf("seed %d: battery-enabled run reported no battery stats", seed)
				}
				if j := res.Battery.ParticipationJain; j <= 0 || j > 1 {
					t.Errorf("seed %d: participation Jain %v outside (0, 1]", seed, j)
				}
				if gated {
					gatedSeeds++
				}
			}
			t.Logf("gating engaged in %d of %d seeds", gatedSeeds, gatingSeeds)
			if gatedSeeds == 0 {
				t.Errorf("no round of any of %d seeds saw an unavailable device; gating never engaged", gatingSeeds)
			}
		})
	}
}
