package sweep

import (
	"slices"

	"autofl/internal/sim"
)

// TraceVersion gates the RunTrace payload layout. Consumers must
// ignore payloads with an unknown version rather than misreading them
// (the cache skips such entries).
const TraceVersion = 1

// RunTrace is the versioned per-round trace payload of one executed
// cell: the run's own sim.Trace plus its accuracy target and floor.
// Because every simulated round depends only on the rounds before it —
// never on the horizon — the first h rounds of a trace replay exactly
// what a run bounded at h rounds would have measured, so a long cached
// run can answer any shorter-horizon request byte-identically
// (OutcomeAt). encoding/json flattens the embedded trace's arrays
// after the three scalars, which fixes the payload layout.
type RunTrace struct {
	V int `json:"v"`
	// TargetAccuracy and AccuracyFloor echo the run configuration;
	// replay needs them to re-derive convergence and progress.
	TargetAccuracy float64 `json:"target_accuracy"`
	AccuracyFloor  float64 `json:"accuracy_floor"`
	sim.Trace
}

// NewRunTrace wraps a finished run's trace as the cacheable payload,
// sharing its arrays. The staleness array is dropped when no round saw
// a stale update, keeping such payloads byte-identical to their
// pre-async form.
func NewRunTrace(res *sim.Result) *RunTrace {
	t := &RunTrace{
		V:              TraceVersion,
		TargetAccuracy: res.TargetAccuracy,
		AccuracyFloor:  res.AccuracyFloor,
		Trace:          res.Trace,
	}
	if !slices.ContainsFunc(t.Staleness, func(s float64) bool { return s != 0 }) {
		t.Staleness = nil
	}
	return t
}

// Valid reports whether the payload is one this code can replay: a
// known version and consistent array lengths, with the two battery
// arrays present or absent together.
func (t *RunTrace) Valid() bool {
	if t == nil || t.V != TraceVersion {
		return false
	}
	n := len(t.Sec)
	return len(t.EnergyJ) == n && len(t.ParticipantEnergyJ) == n && len(t.Accuracy) == n &&
		(len(t.Staleness) == 0 || len(t.Staleness) == n) &&
		(len(t.Jain) == 0 || len(t.Jain) == n) &&
		len(t.BatteryFrac) == len(t.Jain)
}

// OutcomeAt replays the trace under a horizon of the given round
// count through sim.Trace.Fold — the fold the live run reports
// through — so the Outcome is bit for bit the one a fresh run bounded
// at that horizon reports.
//
// The replay fails (ok == false) when the trace cannot witness the
// request: an invalid payload, or a horizon beyond the recorded
// rounds of a run that never converged.
func (t *RunTrace) OutcomeAt(rounds int) (Outcome, bool) {
	if !t.Valid() || rounds <= 0 {
		return Outcome{}, false
	}
	res := t.Fold(rounds, t.TargetAccuracy, t.AccuracyFloor)
	if !res.Converged && res.Rounds < rounds {
		// The trace ran out before the requested horizon without
		// converging: it cannot witness rounds it never executed.
		return Outcome{}, false
	}
	return OutcomeOf(&res), true
}

// OutcomeOf is the sweep measurement of a finished (or replayed) run.
// It carries no trace payload.
func OutcomeOf(res *sim.Result) Outcome {
	out := Outcome{
		Converged:       res.Converged,
		Rounds:          res.Rounds,
		TimeToTargetSec: res.TimeToTargetSec,
		EnergyToTargetJ: res.EnergyToTargetJ,
		GlobalPPW:       res.GlobalPPW(),
		LocalPPW:        res.LocalPPW(),
		FinalAccuracy:   res.FinalAccuracy,
		MeanStaleness:   res.MeanStaleness,
	}
	if res.Battery != nil {
		out.ParticipationJain = res.Battery.ParticipationJain
		out.BatteryMeanFrac = res.Battery.MeanCharge
	}
	return out
}
