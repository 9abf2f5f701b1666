package sim

// Trace is the per-round record of a run: parallel arrays indexed by
// zero-based round, the one place each round's headline metrics are
// kept. Because every round depends only on the rounds before it —
// never on the horizon — its first h entries replay exactly what a run
// bounded at h rounds would have measured. The live Run folds it into
// its Result, and the sweep cache stores it (as sweep.RunTrace, which
// embeds it) to serve shorter horizons from long cached runs; both go
// through Fold.
//
// The JSON tags are the cache payload's layout and must not change.
type Trace struct {
	// Sec, EnergyJ, ParticipantEnergyJ and Accuracy are each round's
	// wall-clock duration, fleet-wide energy, participants-only energy
	// and post-round accuracy.
	Sec                []float64 `json:"sec"`
	EnergyJ            []float64 `json:"energy_j"`
	ParticipantEnergyJ []float64 `json:"participant_energy_j"`
	Accuracy           []float64 `json:"accuracy"`
	// Staleness is each round's mean applied-update staleness. The
	// engine records it only for asynchronous runs, and the cache
	// payload omits it when no round saw a stale update.
	Staleness []float64 `json:"staleness,omitempty"`
	// Jain and BatteryFrac are each round's participation-fairness
	// index and mean candidate state of charge, recorded only for runs
	// with a battery model (Jain is non-nil exactly then).
	Jain        []float64 `json:"jain,omitempty"`
	BatteryFrac []float64 `json:"battery_frac,omitempty"`
}

// Rounds is the number of recorded rounds.
func (t *Trace) Rounds() int { return len(t.Sec) }

// add appends one round's record.
func (t *Trace) add(r *RoundInfo) {
	t.Sec = append(t.Sec, r.RoundSec)
	t.EnergyJ = append(t.EnergyJ, r.EnergyJ)
	t.ParticipantEnergyJ = append(t.ParticipantEnergyJ, r.ParticipantEnergyJ)
	t.Accuracy = append(t.Accuracy, r.Accuracy)
	if t.Staleness != nil {
		t.Staleness = append(t.Staleness, r.MeanStaleness)
	}
	if t.Jain != nil {
		t.Jain = append(t.Jain, r.ParticipationJain)
		t.BatteryFrac = append(t.BatteryFrac, r.BatteryMeanCharge)
	}
}

// Fold replays the trace under a horizon of h rounds: it sums the
// rounds in order, stops at the first round whose accuracy reaches
// target, and derives the means, so the Result is bit for bit what a
// run bounded at h rounds reports. The optional arrays must be empty
// or as long as Sec (sweep.RunTrace.Valid checks this for untrusted
// payloads). Policy, Trace, RewardTrace and the battery counts are
// left for the caller; Battery is non-nil exactly when Jain is.
func (t *Trace) Fold(h int, target, floor float64) Result {
	res := Result{TargetAccuracy: target, AccuracyFloor: floor, FinalAccuracy: floor}
	stale := 0.0
	for i := 0; i < h && i < len(t.Sec); i++ {
		res.Rounds++
		res.TimeToTargetSec += t.Sec[i]
		res.EnergyToTargetJ += t.EnergyJ[i]
		res.ParticipantEnergyToTargetJ += t.ParticipantEnergyJ[i]
		if len(t.Staleness) > 0 {
			stale += t.Staleness[i]
		}
		res.FinalAccuracy = t.Accuracy[i]
		if res.FinalAccuracy >= target {
			res.Converged = true
			res.ConvergedRound = i + 1
			break
		}
	}
	n := res.Rounds
	if n > 0 {
		res.MeanRoundSec = res.TimeToTargetSec / float64(n)
		res.MeanRoundEnergyJ = res.EnergyToTargetJ / float64(n)
		res.MeanStaleness = stale / float64(n)
	}
	if t.Jain != nil {
		// The battery summary reports the last round's values, not sums.
		res.Battery = &BatteryStats{}
		if n > 0 && len(t.Jain) > 0 {
			res.Battery.ParticipationJain, res.Battery.MeanCharge = t.Jain[n-1], t.BatteryFrac[n-1]
		}
	}
	return res
}
