package sim_test

import (
	"reflect"
	"testing"

	"autofl/internal/data"
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

func stepperConfig(seed uint64, maxRounds int) sim.Config {
	return sim.Config{
		Workload:  workload.CNNMNIST(),
		Params:    workload.S3,
		Data:      data.NonIID50,
		Env:       sim.EnvField(),
		Seed:      seed,
		MaxRounds: maxRounds,
	}
}

// TestStepperReproducesRun pins the tentpole equivalence at the engine
// level: Start + Step-to-completion + Result is Run, field for field.
func TestStepperReproducesRun(t *testing.T) {
	cfg := stepperConfig(21, 150)
	closed := sim.New(cfg).Run(policy.NewRandom(5))

	run := sim.New(cfg).Start(policy.NewRandom(5))
	steps := 0
	for run.Step() {
		steps++
	}
	stepped := run.Result()

	if steps != closed.Rounds {
		t.Errorf("stepper executed %d rounds, Run executed %d", steps, closed.Rounds)
	}
	if !reflect.DeepEqual(closed, stepped) {
		t.Errorf("stepped result differs from closed-loop Run:\nrun:  %+v\nstep: %+v", closed, stepped)
	}
}

// TestRunPrefixIndependentOfHorizon pins the property the sweep
// cache's horizon-prefix serving rests on: a round depends only on the
// rounds before it, never on MaxRounds, so a short-horizon run is
// exactly the prefix of a long one.
func TestRunPrefixIndependentOfHorizon(t *testing.T) {
	long := sim.New(stepperConfig(33, 300)).Run(policy.NewRandom(7))
	short := sim.New(stepperConfig(33, 120)).Run(policy.NewRandom(7))

	if long.Trace.Rounds() < short.Trace.Rounds() {
		t.Fatalf("long trace (%d) shorter than short trace (%d)", long.Trace.Rounds(), short.Trace.Rounds())
	}
	m := short.Rounds
	if !reflect.DeepEqual(long.Trace.Sec[:m], short.Trace.Sec) ||
		!reflect.DeepEqual(long.Trace.EnergyJ[:m], short.Trace.EnergyJ) ||
		!reflect.DeepEqual(long.Trace.ParticipantEnergyJ[:m], short.Trace.ParticipantEnergyJ) {
		t.Error("short-horizon trace is not a prefix of the long-horizon trace")
	}
	if !reflect.DeepEqual(long.Trace.Accuracy[:m], short.Trace.Accuracy) {
		t.Error("short-horizon accuracy trace is not a prefix of the long one")
	}
	// Replaying the prefix sums reproduces the short run's aggregates
	// exactly (same float additions in the same order).
	var sec, energy, part float64
	for i := 0; i < m; i++ {
		sec += long.Trace.Sec[i]
		energy += long.Trace.EnergyJ[i]
		part += long.Trace.ParticipantEnergyJ[i]
	}
	if sec != short.TimeToTargetSec || energy != short.EnergyToTargetJ || part != short.ParticipantEnergyToTargetJ {
		t.Error("prefix sums do not reproduce the short run's aggregates bit-for-bit")
	}
}

// TestRunTraceRecordsEveryRound checks the per-round trace lines up
// with the accuracy trace and the summed aggregates.
func TestRunTraceRecordsEveryRound(t *testing.T) {
	res := sim.New(stepperConfig(4, 80)).Run(policy.NewRandom(9))
	tr := &res.Trace
	if len(tr.Sec) != res.Rounds || len(tr.EnergyJ) != res.Rounds ||
		len(tr.ParticipantEnergyJ) != res.Rounds || len(tr.Accuracy) != res.Rounds {
		t.Fatalf("trace lengths %d/%d/%d/%d, want %d",
			len(tr.Sec), len(tr.EnergyJ), len(tr.ParticipantEnergyJ), len(tr.Accuracy), res.Rounds)
	}
	for i := range tr.Sec {
		if tr.Sec[i] < 0 || tr.EnergyJ[i] <= 0 || tr.ParticipantEnergyJ[i] < 0 {
			t.Fatalf("round %d: implausible trace record %v/%v/%v", i, tr.Sec[i], tr.EnergyJ[i], tr.ParticipantEnergyJ[i])
		}
	}
}

// TestSnapshotMatchesBoundedRun checks a mid-run Snapshot equals a
// fresh run bounded at that horizon.
func TestSnapshotMatchesBoundedRun(t *testing.T) {
	run := sim.New(stepperConfig(8, 200)).Start(policy.NewRandom(3))
	for run.Rounds() < 60 {
		if !run.Step() {
			break
		}
	}
	snap := run.Snapshot()
	bounded := sim.New(stepperConfig(8, 60)).Run(policy.NewRandom(3))

	// The snapshot's slices share backing with the live run; compare
	// contents.
	if snap.Rounds != bounded.Rounds ||
		snap.TimeToTargetSec != bounded.TimeToTargetSec ||
		snap.EnergyToTargetJ != bounded.EnergyToTargetJ ||
		snap.FinalAccuracy != bounded.FinalAccuracy ||
		snap.MeanRoundSec != bounded.MeanRoundSec {
		t.Errorf("snapshot at round 60 differs from a 60-round bounded run:\nsnap:    %+v\nbounded: %+v", &snap, bounded)
	}
	if !reflect.DeepEqual(snap.Trace, bounded.Trace) {
		t.Error("snapshot trace differs from the bounded run's")
	}

	// Snapshot must not end the run.
	if run.Done() {
		t.Fatal("run reports done after Snapshot")
	}
	if !run.Step() {
		t.Error("Step after Snapshot executed nothing")
	}
}

// TestRunLastAndDone checks the per-round info and termination
// behavior of the stepper.
func TestRunLastAndDone(t *testing.T) {
	run := sim.New(stepperConfig(2, 30)).Start(policy.NewRandom(1))
	if run.Last() != (sim.RoundInfo{}) {
		t.Error("Last before the first Step should be zero")
	}
	rounds := 0
	for run.Step() {
		rounds++
		info := run.Last()
		if info.Round != rounds {
			t.Fatalf("Last().Round = %d after %d steps", info.Round, rounds)
		}
		if info.Participants == 0 || info.Kept > info.Participants {
			t.Fatalf("implausible participation: %+v", info)
		}
		if info.EnergyJ <= 0 {
			t.Fatalf("round %d reports no energy", rounds)
		}
	}
	if !run.Done() {
		t.Error("run not done after Step returned false")
	}
	if run.Step() {
		t.Error("Step after done executed a round")
	}
	res := run.Result()
	if res.Rounds != rounds {
		t.Errorf("result rounds %d, stepped %d", res.Rounds, rounds)
	}

	// Result ends a run early: no further steps execute.
	early := sim.New(stepperConfig(2, 30)).Start(policy.NewRandom(1))
	early.Step()
	r := early.Result()
	if r.Rounds != 1 {
		t.Errorf("early Result rounds = %d, want 1", r.Rounds)
	}
	if early.Step() {
		t.Error("Step after Result executed a round")
	}
}

// TestResultStringNeverConverged pins the distinct never-converged
// rendering: round 0 must not appear as a convergence round.
func TestResultStringNeverConverged(t *testing.T) {
	stalled := &sim.Result{Policy: "p", Rounds: 40}
	if s := stalled.String(); s != "p: acc=0.000 converged=never (40 rounds) time=0s energy=0J" {
		t.Errorf("stalled rendering = %q", s)
	}
	converged := &sim.Result{Policy: "p", Converged: true, ConvergedRound: 7, Rounds: 7}
	if s := converged.String(); s != "p: acc=0.000 converged=round 7 time=0s energy=0J" {
		t.Errorf("converged rendering = %q", s)
	}
	// Converged with no recorded round (a hand-built result) falls
	// back to the executed count instead of claiming round 0.
	odd := &sim.Result{Policy: "p", Converged: true, Rounds: 12}
	if s := odd.String(); s != "p: acc=0.000 converged=round 12 time=0s energy=0J" {
		t.Errorf("round-fallback rendering = %q", s)
	}
}
