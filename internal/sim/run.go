package sim

// This file is the stepwise half of the engine: Engine.Run inverted
// into an iterator-style Run that callers drive one aggregation round
// at a time. The public autofl.Session, the live -progress output of
// cmd/autoflsim, and the traced sweep runner are all built on it;
// Engine.Run itself is a Start/Step/Result loop.

import "autofl/internal/device"

// RoundInfo is the headline record of one aggregation round — the
// per-round view an observer sees (autofl.RoundEvent is this type),
// and the header every RoundResult embeds. Run.Last returns it without
// allocating.
type RoundInfo struct {
	// Round is the 1-based index of the round.
	Round int
	// Accuracy is the global-model accuracy after the round.
	Accuracy float64
	// RoundSec is the round's wall-clock duration: gated by the slowest
	// kept participant, or the deadline when stragglers were cut.
	RoundSec float64
	// EnergyJ is the round's fleet-wide energy, idle devices included
	// (Eq 6 over all N devices); ParticipantEnergyJ is the energy of
	// the selected devices only.
	EnergyJ            float64
	ParticipantEnergyJ float64
	// Participants counts selected devices (kept or dropped); Kept the
	// updates that reached aggregation (full or partial); Dropped the
	// deadline-missing stragglers.
	Participants, Kept, Dropped int
	// VirtualSec is the virtual clock after the round (cumulative
	// round seconds).
	VirtualSec float64
	// Pending counts updates still in flight after the round's
	// aggregation; MeanStaleness averages the staleness of the
	// updates it applied. Both are 0 in synchronous runs.
	Pending       int
	MeanStaleness float64
	// Reward is the learning policy's mean reward for the round (the
	// last entry of its reward trace, Fig 15); 0 for non-learning
	// policies. Run.Step fills it after feedback.
	Reward float64
	// BatteryAvailable, BatteryDepleted, and BatteryMeanCharge
	// summarize the candidate view's battery state at observation:
	// devices meeting the participation threshold, devices at zero
	// charge, and the mean state of charge in [0, 1].
	// ParticipationJain is Jain's fairness index over cumulative
	// per-device participation counts. All zero without a battery
	// model.
	BatteryAvailable  int
	BatteryDepleted   int
	BatteryMeanCharge float64
	ParticipationJain float64
	// Converged reports whether this round reached the accuracy
	// target (and therefore ended the run). Run.Step fills it.
	Converged bool
}

// Run is an in-progress, stepwise execution of one policy on an
// Engine: the open-loop form of Engine.Run. Create one with
// Engine.Start, advance it with Step, inspect progress with Last and
// Snapshot, and finish with Result.
//
// A Run owns its engine's RNG streams and round scratch: use one Run
// per Engine, and do not interleave it with Engine.Run or RunRound
// calls on the same engine. A candidate pool already drawn for the
// next round belongs to the engine, not the Run: the engine's next
// round, in a later Start or in RunRound, observes that pool, exactly
// the one it would have drawn itself.
type Run struct {
	e       *Engine
	p       Policy
	tp      TraitsPolicy
	fb      FeedbackPolicy
	hasFb   bool
	rewards interface{ RewardTrace() []float64 }
	acc     float64
	trace   Trace
	done    bool
}

// Start opens a stepwise run of the policy. The trace arrays are
// preallocated to the full horizon so steady-state Step performs no
// allocation.
func (e *Engine) Start(p Policy) *Run {
	n := e.cfg.MaxRounds
	r := &Run{
		e:   e,
		p:   p,
		acc: e.cfg.Workload.AccuracyFloor,
		trace: Trace{
			Sec:                make([]float64, 0, n),
			EnergyJ:            make([]float64, 0, n),
			ParticipantEnergyJ: make([]float64, 0, n),
			Accuracy:           make([]float64, 0, n),
		},
	}
	if e.async != nil {
		r.trace.Staleness = make([]float64, 0, n)
	}
	if e.batt != nil {
		r.trace.Jain = make([]float64, 0, n)
		r.trace.BatteryFrac = make([]float64, 0, n)
	}
	// The optional interfaces are asserted once here, not per round: a
	// dynamic assertion allocates its call-site cache on first use.
	r.tp, _ = p.(TraitsPolicy)
	r.fb, r.hasFb = p.(FeedbackPolicy)
	r.rewards, _ = p.(interface{ RewardTrace() []float64 })
	return r
}

// Step executes one aggregation round, feeds learning policies their
// feedback, and records the round in the run's trace. It reports
// false — executing nothing — once the run has finished: target
// reached, horizon exhausted, or Result already called.
func (r *Run) Step() bool {
	if r.done {
		return false
	}
	ctx, res := r.e.runRound(r.p, r.tp, r.trace.Rounds(), r.acc, &r.e.scratch)
	if r.hasFb {
		r.fb.Feedback(ctx, res)
	}
	if r.rewards != nil {
		if tr := r.rewards.RewardTrace(); len(tr) > 0 {
			res.Reward = tr[len(tr)-1]
		}
	}
	r.acc = res.Accuracy
	res.Converged = r.acc >= r.e.cfg.TargetAccuracy
	r.trace.add(&res.RoundInfo)
	r.done = res.Converged || r.trace.Rounds() >= r.e.cfg.MaxRounds
	return true
}

// Done reports whether the run has finished (no further Step will
// execute a round).
func (r *Run) Done() bool { return r.done }

// Rounds is the number of rounds executed so far.
func (r *Run) Rounds() int { return r.trace.Rounds() }

// Last returns the most recently stepped round's record; the zero
// value before the first Step.
func (r *Run) Last() RoundInfo { return r.e.scratch.res.RoundInfo }

// Snapshot returns the run's result as of the rounds executed so far,
// without ending it: exactly what Result would report for a horizon
// bounded here. The trace slices share backing arrays with the live
// run (their lengths are fixed; later rounds append past them).
func (r *Run) Snapshot() Result {
	out := r.trace.Fold(r.trace.Rounds(), r.e.cfg.TargetAccuracy, r.e.cfg.Workload.AccuracyFloor)
	out.Policy = r.p.Name()
	out.Trace = r.trace
	if r.rewards != nil {
		out.RewardTrace = r.rewards.RewardTrace()
	}
	if out.Battery != nil {
		last := r.Last()
		out.Battery.Available, out.Battery.Depleted = last.BatteryAvailable, last.BatteryDepleted
	}
	return out
}

// Result ends the run — subsequent Step calls execute nothing — and
// returns the finalized result. Stepping to completion first and then
// calling Result reproduces Engine.Run exactly.
func (r *Run) Result() *Result {
	r.done = true
	out := r.Snapshot()
	return &out
}

// PopulationLen is the population's device count. Together with
// DeviceSnapshot it lets callers stream fleet-wide per-device
// distributions without materializing the fleet.
func (r *Run) PopulationLen() int { return r.e.pop.n }

// DeviceSnapshot exposes the engine's O(1) per-device snapshot (see
// Engine.DeviceSnapshot) for the run's current state.
func (r *Run) DeviceSnapshot(i int) (step int, target device.Target, energyJ float64, ok bool) {
	return r.e.DeviceSnapshot(i)
}
