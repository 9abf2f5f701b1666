package sim

// This file wires the battery subsystem (internal/battery) into the
// round engine. The model itself — keyed initial charge, lazy
// virtual-time settling, harvesting profiles — lives in the battery
// package; here the engine decides *when* devices settle (at
// observation), *what* they drain (the measured round energy net of
// the idle share the settle pass integrates), and *who* is excluded
// from selection (sanitize skips below-threshold devices). All battery
// state is nil when Config.Battery is nil, and the battery seed is
// derived by keyed hashing rather than stream draws, so a
// battery-disabled run is byte-identical to the pre-battery engine by
// construction.

import (
	"autofl/internal/battery"
	"autofl/internal/rng"
)

// batterySeed derives the battery model's hash-family seed from the
// run seed without consuming any RNG stream draws: enabling the
// battery perturbs no other subsystem's sequence.
func batterySeed(runSeed uint64) uint64 { return rng.Mix(runSeed, 0xba77e, 0x5eed) }

// battState is the engine's battery-mode state: the per-device model
// plus the cumulative participation counts behind the Jain fairness
// index, maintained as running moments so the per-round index is O(1)
// to read and O(participants) to update.
type battState struct {
	model *battery.Model
	// partCount is each device's cumulative selection count; partSum
	// and partSumSq are its running Σx and Σx² moments.
	partCount []uint32
	partSum   float64
	partSumSq float64
}

func newBattState(spec battery.Spec, runSeed uint64, n int) *battState {
	return &battState{
		model:     battery.New(spec, batterySeed(runSeed), n),
		partCount: make([]uint32, n),
	}
}

// participate folds one selection of device g into the participation
// counts and the Jain moments (a count going c→c+1 adds 1 to Σx and
// 2c+1 to Σx²).
func (b *battState) participate(g int) {
	c := b.partCount[g]
	b.partCount[g] = c + 1
	b.partSum++
	b.partSumSq += float64(2*c + 1)
}

// jain is Jain's fairness index over the cumulative per-device
// participation counts, 0 before any selection.
func (b *battState) jain() float64 {
	return jainFromMoments(b.partSum, b.partSumSq, len(b.partCount))
}

// jainFromMoments is Jain's fairness index (Σx)²/(n·Σx²) from the
// running moments Σx and Σx² over n devices: 1 when every device
// participated equally, 1/n when one device took every slot, and 0 for
// an empty or all-zero allocation. Keeping the moments incremental
// makes a per-round value cost O(participants), not O(population).
func jainFromMoments(sum, sumSq float64, n int) float64 {
	if n == 0 || sumSq <= 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// observeBattery settles device g's idle drain and harvest up to the
// engine's virtual clock and fills the view row's battery fields. It
// is called from the (possibly parallel) observe pass: device indices
// are disjoint across shards, so the per-device mutation never races.
func (e *Engine) observeBattery(ds *DeviceState, g int, idleW float64) {
	m := e.batt.model
	m.SettleAt(g, idleW, e.vnow)
	ds.Battery = m.Frac(g)
	ds.Unavailable = !m.Available(g)
}

// battViewStats summarizes a candidate view's battery state at
// observation time: how many devices meet the participation threshold,
// how many are fully depleted, and the mean state of charge.
func battViewStats(devices []DeviceState) (available, depleted int, meanFrac float64) {
	for i := range devices {
		ds := &devices[i]
		if !ds.Unavailable {
			available++
		}
		if ds.Battery <= 0 {
			depleted++
		}
		meanFrac += ds.Battery
	}
	if len(devices) > 0 {
		meanFrac /= float64(len(devices))
	}
	return available, depleted, meanFrac
}

// BatteryStats is the end-of-run battery summary of a battery-enabled
// run (Result.Battery; autofl.BatteryReport is this type).
type BatteryStats struct {
	// ParticipationJain is Jain's fairness index over cumulative
	// per-device participation counts: 1 when every device carried the
	// same load, 1/n when one device carried everything.
	ParticipationJain float64
	// MeanCharge is the candidate view's mean state of charge in
	// [0, 1] at the final round.
	MeanCharge float64
	// Available and Depleted count final-round candidate devices above
	// the participation threshold and at zero charge.
	Available, Depleted int
}
