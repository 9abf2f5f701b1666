// Package battery models per-device energy storage for the simulator:
// a fixed-capacity battery per device that drains by the engine's
// measured round energy, optionally harvests (wall charger or a
// solar-diurnal profile) in virtual time, and gates participation on a
// state-of-charge threshold.
//
// The model is deterministic and shard-independent by construction.
// Every per-device quantity — initial charge, charger membership,
// solar phase — is a pure function of (seed, device index) via
// rng.Mix keyed hashing, never of draw order, so evaluating devices
// from any goroutine or worker produces identical bytes. State is
// 8 bytes per device (float32 charge + float32 settle time), lazily
// settled: a device's idle drain and harvest are integrated only when
// it is next observed, which keeps the steady-state cost of a round
// O(candidates), not O(population).
package battery

import (
	"math"

	"autofl/internal/rng"
)

// Profile names a harvesting profile.
type Profile string

const (
	// ProfileNone disables harvesting: charge only ever drains.
	ProfileNone Profile = ""
	// ProfileCharger plugs a keyed fraction of devices into a wall
	// charger with a constant inflow; the rest never harvest.
	ProfileCharger Profile = "charger"
	// ProfileSolar gives every device a sinusoidal diurnal inflow in
	// virtual time, phase-shifted per device so the fleet spans the
	// whole day/night cycle.
	ProfileSolar Profile = "solar-diurnal"
)

// Spec configures the battery model. The zero value of an optional
// field selects the documented default; CapacityJ is mandatory and
// validated by the engine (sim.Config.validate) before a Model is
// built.
type Spec struct {
	// CapacityJ is the battery capacity in joules.
	CapacityJ float64
	// ThresholdJ is the participation threshold: a device whose
	// charge is below it is unavailable for selection. Default
	// 0.15 * CapacityJ.
	ThresholdJ float64
	// InitialFracLo and InitialFracHi bound the keyed per-device
	// initial state of charge, as fractions of capacity. Defaults
	// 0.80 and 0.95: FL schedulers admit devices into training only
	// while charged and idle, so a fleet enters a run in the upper
	// charge band. A narrow band also makes remaining charge an
	// inverse proxy for cumulative load, which is what lets
	// charge-weighted selection self-balance participation.
	InitialFracLo float64
	InitialFracHi float64
	// Harvest selects the harvesting profile (default ProfileNone).
	Harvest Profile
	// HarvestW is the harvest inflow in watts: the charger rate for
	// ProfileCharger, the peak (noon) rate for ProfileSolar. Default
	// 2.5 W.
	HarvestW float64
	// ChargerFrac is the fraction of devices plugged in under
	// ProfileCharger. Default 0.25.
	ChargerFrac float64
	// DaySec is the diurnal period for ProfileSolar, in virtual
	// seconds. Default 86400 (one day).
	DaySec float64
}

// WithDefaults returns the spec with zero-valued optional fields
// replaced by their defaults. It does not validate; degenerate specs
// are rejected by sim.Config.validate.
func (s Spec) WithDefaults() Spec {
	if s.ThresholdJ == 0 {
		s.ThresholdJ = 0.15 * s.CapacityJ
	}
	if s.InitialFracLo == 0 && s.InitialFracHi == 0 {
		s.InitialFracLo, s.InitialFracHi = 0.80, 0.95
	}
	if s.HarvestW == 0 {
		s.HarvestW = 2.5
	}
	if s.ChargerFrac == 0 {
		s.ChargerFrac = 0.25
	}
	if s.DaySec == 0 {
		s.DaySec = 86400
	}
	return s
}

// Keyed-hash domains, so initial charge, charger membership, and solar
// phase draw from disjoint per-device hash families.
const (
	domainInit    = 0x0ba77e_01
	domainCharger = 0x0ba77e_02
	domainSolar   = 0x0ba77e_03
)

// u01 maps a hash word to a uniform float64 in [0, 1).
func u01(h uint64) float64 { return float64(h>>11) * 0x1p-53 }

// Model holds the packed per-device battery state. Not safe for
// concurrent use on the SAME device index; the engine's sharded
// observation touches disjoint indices, which is safe.
type Model struct {
	spec Spec
	seed uint64

	chargeJ []float32 // current charge, joules
	lastSec []float32 // virtual time of the last settle, seconds
}

// New builds a model for n devices with the given keyed seed. Initial
// charge is a pure function of (seed, index): construction order,
// shard count, and worker placement never change a device's bytes.
func New(spec Spec, seed uint64, n int) *Model {
	m := &Model{
		spec:    spec.WithDefaults(),
		seed:    seed,
		chargeJ: make([]float32, n),
		lastSec: make([]float32, n),
	}
	lo, hi := m.spec.InitialFracLo, m.spec.InitialFracHi
	for i := range m.chargeJ {
		f := lo + (hi-lo)*u01(rng.Mix(seed, domainInit, uint64(i)))
		m.chargeJ[i] = float32(m.spec.CapacityJ * f)
	}
	return m
}

// Spec returns the defaulted spec the model was built with.
func (m *Model) Spec() Spec { return m.spec }

// Len returns the number of devices.
func (m *Model) Len() int { return len(m.chargeJ) }

// MemoryBytes returns the resident per-device state size.
func (m *Model) MemoryBytes() int { return 8 * len(m.chargeJ) }

// Frac returns device i's state of charge in [0, 1] as of its last
// settle.
func (m *Model) Frac(i int) float64 { return float64(m.chargeJ[i]) / m.spec.CapacityJ }

// Available reports whether device i's settled charge meets the
// participation threshold.
func (m *Model) Available(i int) bool { return float64(m.chargeJ[i]) >= m.spec.ThresholdJ }

// Depleted reports whether device i's settled charge is exhausted.
func (m *Model) Depleted(i int) bool { return m.chargeJ[i] <= 0 }

// SettleAt integrates device i's idle drain (idleW watts) and harvest
// inflow from its last settle time up to virtual time tSec, clamps to
// [0, capacity], and returns the settled charge in joules. Settling is
// idempotent: a second call at the same tSec returns the same charge.
func (m *Model) SettleAt(i int, idleW, tSec float64) float64 {
	last := float64(m.lastSec[i])
	if tSec > last {
		c := float64(m.chargeJ[i]) - idleW*(tSec-last) + m.harvestJ(i, last, tSec)
		m.chargeJ[i] = float32(math.Min(math.Max(c, 0), m.spec.CapacityJ))
		m.lastSec[i] = float32(tSec)
	}
	return float64(m.chargeJ[i])
}

// Drain subtracts j joules from device i (negative j is ignored),
// clamping at empty. The engine calls it with a participant's round
// energy net of the idle share SettleAt already integrates.
func (m *Model) Drain(i int, j float64) {
	if j <= 0 {
		return
	}
	c := float64(m.chargeJ[i]) - j
	if c < 0 {
		c = 0
	}
	m.chargeJ[i] = float32(c)
}

// harvestJ is the energy device i harvests over virtual (t0, t1].
func (m *Model) harvestJ(i int, t0, t1 float64) float64 {
	switch m.spec.Harvest {
	case ProfileCharger:
		if u01(rng.Mix(m.seed, domainCharger, uint64(i))) < m.spec.ChargerFrac {
			return m.spec.HarvestW * (t1 - t0)
		}
		return 0
	case ProfileSolar:
		// Midpoint evaluation of the per-device phase-shifted
		// half-rectified sinusoid — deterministic and cheap; the
		// approximation error is our model definition, not drift.
		phase := u01(rng.Mix(m.seed, domainSolar, uint64(i)))
		mid := (t0 + t1) / 2
		s := math.Sin(2 * math.Pi * (mid/m.spec.DaySec + phase))
		if s <= 0 {
			return 0
		}
		return m.spec.HarvestW * s * (t1 - t0)
	default:
		return 0
	}
}
