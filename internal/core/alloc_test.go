package core

import (
	"testing"

	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// TestControllerSteadyStateAllocFree pins the §6.4 overhead claim at
// the allocation level: once the fleet's agents, rows, and round
// buffers exist, Select and Feedback must not allocate at all, whether
// Q-tables are keyed by device or shared per category. Any regression
// here shows up as a nonzero AllocsPerRun long before it is visible in
// wall-clock benchmarks.
func TestControllerSteadyStateAllocFree(t *testing.T) {
	for _, shared := range []bool{false, true} {
		name := "per-device"
		if shared {
			name = "shared-tables"
		}
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions(92)
			opts.SharedTables = shared
			checkControllerAllocFree(t, New(opts))
		})
	}
}

// allocPopulation is the 40-device fleet the allocation pins run on.
func allocPopulation(t *testing.T) *device.Population {
	t.Helper()
	p, err := device.NewPopulation(6, 14, 20)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func checkControllerAllocFree(t *testing.T, ctrl *Controller) {
	cfg := sim.Config{
		Workload:       workload.CNNMNIST(),
		Params:         workload.GlobalParams{B: 16, E: 5, K: 8},
		Population:     allocPopulation(t),
		Data:           data.NonIID50,
		Env:            sim.EnvField(),
		Seed:           91,
		MaxRounds:      80,
		TargetAccuracy: 1.1,
	}
	eng := sim.New(cfg)

	// Warm up: materialize agents, visited-state rows, tie priorities,
	// and every reusable buffer.
	acc := cfg.Workload.AccuracyFloor
	var ctx *sim.RoundContext
	var res *sim.RoundResult
	for round := 0; round < 80; round++ {
		ctx, res = eng.RunRound(ctrl, round, acc)
		ctrl.Feedback(ctx, res)
		acc = res.Accuracy
	}

	// The reward trace legitimately grows one float per round; give it
	// headroom so slice-growth amortization doesn't show up as an
	// allocation inside the measured window.
	const runs = 200
	trace := ctrl.rewardTrace
	grown := make([]float64, len(trace), len(trace)+4*runs)
	copy(grown, trace)
	ctrl.rewardTrace = grown

	if avg := testing.AllocsPerRun(runs, func() { _ = ctrl.Select(ctx) }); avg != 0 {
		t.Errorf("steady-state Select allocated %.2f/run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(runs, func() { ctrl.Feedback(ctx, res) }); avg != 0 {
		t.Errorf("steady-state Feedback allocated %.2f/run, want 0", avg)
	}
	// And the interleaved decision→measure loop, as the engine drives
	// it.
	if avg := testing.AllocsPerRun(runs, func() {
		_ = ctrl.Select(ctx)
		ctrl.Feedback(ctx, res)
	}); avg != 0 {
		t.Errorf("steady-state Select+Feedback allocated %.2f/run, want 0", avg)
	}
}

// TestStepperSteadyStateAllocFree extends the allocation pin to the
// streaming engine API: once warm, each sim.Run.Step — a full round
// through the controller's Select and Feedback plus the run's
// accumulating trace — performs zero allocations. Start preallocates
// the trace buffers to the horizon, so the only growth left is the
// controller's reward trace, given headroom exactly as above.
func TestStepperSteadyStateAllocFree(t *testing.T) {
	cfg := sim.Config{
		Workload:       workload.CNNMNIST(),
		Params:         workload.GlobalParams{B: 16, E: 5, K: 8},
		Population:     allocPopulation(t),
		Data:           data.NonIID50,
		Env:            sim.EnvField(),
		Seed:           91,
		MaxRounds:      600,
		TargetAccuracy: 1.1,
	}
	ctrl := New(DefaultOptions(92))
	run := sim.New(cfg).Start(ctrl)
	for run.Rounds() < 80 {
		if !run.Step() {
			t.Fatal("run ended during warmup")
		}
	}

	const runs = 200
	trace := ctrl.rewardTrace
	grown := make([]float64, len(trace), len(trace)+2*runs)
	copy(grown, trace)
	ctrl.rewardTrace = grown

	if avg := testing.AllocsPerRun(runs, func() { run.Step() }); avg != 0 {
		t.Errorf("steady-state Run.Step allocated %.2f/run, want 0", avg)
	}
}
