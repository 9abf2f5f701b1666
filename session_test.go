package autofl

import (
	"reflect"
	"testing"
)

// sessionScenario is a fast field-conditions scenario for Session
// tests.
func sessionScenario(env Environment, data DataScenario) Scenario {
	return Scenario{
		Workload:  CNNMNIST,
		Setting:   S3,
		Data:      data,
		Env:       env,
		Seed:      17,
		MaxRounds: 120,
	}
}

// TestSessionReproducesRun is the tentpole equivalence bar: a Session
// stepped to completion reproduces Scenario.Run's report exactly —
// across the four §5.1 policy families and all four variance
// environments.
func TestSessionReproducesRun(t *testing.T) {
	policies := []Policy{PolicyRandom, PolicyPerformance, PolicyAutoFL, PolicyOFL}
	for _, env := range Environments() {
		for _, p := range policies {
			s := sessionScenario(env, NonIID50)
			batch, err := s.Run(p)
			if err != nil {
				t.Fatal(err)
			}

			sess, err := Open(s, p)
			if err != nil {
				t.Fatal(err)
			}
			steps := 0
			for {
				if _, ok := sess.Step(); !ok {
					break
				}
				steps++
			}
			streamed := sess.Result()
			sess.Close()

			if steps != batch.Rounds {
				t.Errorf("%s/%s: session stepped %d rounds, Run executed %d", env, p, steps, batch.Rounds)
			}
			if !reflect.DeepEqual(batch, streamed) {
				t.Errorf("%s/%s: session report differs from Scenario.Run\nrun:     %+v\nsession: %+v", env, p, batch, streamed)
			}
		}
	}
}

// TestSessionObservers checks every round is observed exactly once, in
// order, and that the observed per-round measurements sum to the
// report's aggregates bit-for-bit.
func TestSessionObservers(t *testing.T) {
	s := sessionScenario(EnvField, NonIID50)
	sess, err := Open(s, PolicyAutoFL)
	if err != nil {
		t.Fatal(err)
	}
	var events []RoundEvent
	sess.Observe(func(ev RoundEvent) { events = append(events, ev) })
	order := 0
	sess.Observe(func(ev RoundEvent) { order++ }) // second observer runs too
	rep := sess.Run()

	if len(events) != rep.Rounds || order != rep.Rounds {
		t.Fatalf("observed %d/%d events for %d rounds", len(events), order, rep.Rounds)
	}
	var sec, energy float64
	sawReward := false
	for i, ev := range events {
		if ev.Round != i+1 {
			t.Fatalf("event %d has round %d", i, ev.Round)
		}
		if ev.Accuracy != rep.Trace.Accuracy[i] {
			t.Fatalf("round %d: observed accuracy %v != trace %v", ev.Round, ev.Accuracy, rep.Trace.Accuracy[i])
		}
		if ev.Reward != 0 {
			sawReward = true
		}
		if ev.Participants == 0 || ev.Kept > ev.Participants {
			t.Fatalf("round %d: implausible participation %+v", ev.Round, ev)
		}
		sec += ev.RoundSec
		energy += ev.EnergyJ
	}
	if sec != rep.TimeToTargetSec || energy != rep.EnergyToTargetJ {
		t.Error("observed per-round sums differ from the report's aggregates")
	}
	if !sawReward {
		t.Error("AutoFL session never delivered a reward")
	}
	if last := events[len(events)-1]; rep.Converged != last.Converged {
		t.Errorf("final event converged=%v, report converged=%v", last.Converged, rep.Converged)
	}
}

// TestSessionRunToAndStopWhen checks bounded stepping and early-stop
// predicates: both end the session with a report covering exactly the
// executed prefix.
func TestSessionRunToAndStopWhen(t *testing.T) {
	s := sessionScenario(EnvField, NonIID100) // never converges under Random
	sess, err := Open(s, PolicyRandom)
	if err != nil {
		t.Fatal(err)
	}
	rep := sess.RunTo(30)
	if sess.Rounds() != 30 || rep.Rounds != 30 {
		t.Fatalf("RunTo(30) left the session at round %d (report %d)", sess.Rounds(), rep.Rounds)
	}
	if sess.Done() {
		t.Error("session done after RunTo short of the horizon")
	}
	// RunTo to a round already passed is a no-op.
	if rep := sess.RunTo(10); rep.Rounds != 30 {
		t.Errorf("RunTo(10) after round 30 reported %d rounds", rep.Rounds)
	}

	// A mid-run report equals a run bounded at the same horizon.
	bounded := s
	bounded.MaxRounds = 30
	ref, err := bounded.Run(PolicyRandom)
	if err != nil {
		t.Fatal(err)
	}
	got := sess.Result()
	if got.Rounds != ref.Rounds || got.EnergyToTargetJ != ref.EnergyToTargetJ ||
		got.FinalAccuracy != ref.FinalAccuracy || got.TimeToTargetSec != ref.TimeToTargetSec {
		t.Errorf("mid-run report differs from a 30-round bounded run:\nsession: %+v\nbounded: %+v", got, ref)
	}

	// Early stop: the predicate ends the run after its round.
	stopped, err := Open(s, PolicyRandom)
	if err != nil {
		t.Fatal(err)
	}
	stopped.StopWhen(func(ev RoundEvent) bool { return ev.Round >= 12 })
	rep = stopped.Run()
	if rep.Rounds != 12 {
		t.Errorf("StopWhen(round 12) ran %d rounds", rep.Rounds)
	}
	if !stopped.Done() {
		t.Error("stopped session not done")
	}
	if _, ok := stopped.Step(); ok {
		t.Error("Step executed after an early stop")
	}

	// Close ends stepping; Result stays available.
	closed, err := Open(s, PolicyRandom)
	if err != nil {
		t.Fatal(err)
	}
	closed.RunTo(5)
	closed.Close()
	if _, ok := closed.Step(); ok {
		t.Error("Step executed after Close")
	}
	if rep := closed.Result(); rep.Rounds != 5 {
		t.Errorf("post-Close report rounds = %d, want 5", rep.Rounds)
	}
}

// TestSessionOpenValidates pins validation at Open time, before any
// round executes.
func TestSessionOpenValidates(t *testing.T) {
	if _, err := Open(Scenario{Workload: "nope"}, PolicyRandom); err == nil {
		t.Error("bad workload should fail Open")
	}
	if _, err := Open(sessionScenario(EnvIdeal, IdealIID), "NotAPolicy"); err == nil {
		t.Error("bad policy should fail Open")
	}
}

// TestFleetEnergyPercentilesOnDefaultFleet: the per-device energy
// distribution streams on the paper's 200-device fleet, not only on
// scaled populations.
func TestFleetEnergyPercentilesOnDefaultFleet(t *testing.T) {
	sess, err := Open(Scenario{Seed: 3, MaxRounds: 20}, PolicyRandom)
	if err != nil {
		t.Fatal(err)
	}
	sess.RunTo(20)
	v, ok := sess.FleetEnergyPercentiles(0.05, 0.5, 0.95)
	if !ok {
		t.Fatal("FleetEnergyPercentiles not ok on the default fleet")
	}
	if !(0 < v[0] && v[0] <= v[1] && v[1] <= v[2]) {
		t.Errorf("percentiles %v are not positive and ordered", v)
	}
}

// TestSessionStepAllocFree pins the PR 3 zero-alloc guarantee through
// the new streaming API: once warm, a Session.Step — one full
// aggregation round, policy decision, feedback, observers, event
// delivery — performs zero steady-state allocations for the learning
// controller, the planning oracle, and random selection (the baseline
// half of every sweep grid).
func TestSessionStepAllocFree(t *testing.T) {
	for _, p := range []Policy{PolicyAutoFL, PolicyOParticipant, PolicyRandom} {
		s := Scenario{
			Workload:  CNNMNIST,
			Setting:   S3,
			Data:      NonIID100, // stalls below target: the horizon never ends the run early
			Env:       EnvField,
			Seed:      5,
			MaxRounds: 600,
		}
		sess, err := Open(s, p)
		if err != nil {
			t.Fatal(err)
		}
		sess.Observe(func(RoundEvent) {}) // observer delivery must be free too
		// Warm up: materialize agents, Q-table rows, and round buffers.
		for sess.Rounds() < 100 {
			if _, ok := sess.Step(); !ok {
				t.Fatalf("%s: run ended during warmup", p)
			}
		}
		if avg := testing.AllocsPerRun(200, func() { sess.Step() }); avg != 0 {
			t.Errorf("%s: steady-state Session.Step allocated %.2f/run, want 0", p, avg)
		}
	}
}
