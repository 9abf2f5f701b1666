// Package power implements the energy models of AutoFL §4.1,
// equations (1) through (4): utilization-based CPU energy, frequency-
// indexed GPU energy, signal-strength-based communication energy, and
// idle energy for non-participants.
//
// The per-frequency busy/idle power values come from the device DVFS
// ladders (internal/device), which are seeded from the paper's Monsoon
// measurements (Table 3). In the paper these values live in a lookup
// table inside AutoFL; here the lookup table is the ProcSpec ladder.
package power

import "autofl/internal/device"

// Signal is the wireless signal-strength tier used by the
// communication energy model (Eq 3). Weaker signals force the radio
// to transmit at higher power, which is why poor networks both slow FL
// down and make it more expensive per byte (§3.2).
type Signal int

const (
	// SignalGood is a strong link (short TX bursts, low TX power).
	SignalGood Signal = iota
	// SignalFair is a mid-strength link.
	SignalFair
	// SignalPoor is a weak link (high TX power, long TX times).
	SignalPoor
)

// String implements fmt.Stringer.
func (s Signal) String() string {
	switch s {
	case SignalGood:
		return "good"
	case SignalFair:
		return "fair"
	default:
		return "poor"
	}
}

// TXWatts returns the wireless interface transmit power P^S_TX at the
// given signal strength — the measured-per-signal-strength table of
// Eq (3). Values follow the signal-strength-aware offloading
// literature the paper builds on: radios spend several times more
// power per second when the link is weak.
func TXWatts(s Signal) float64 {
	switch s {
	case SignalGood:
		return 0.9
	case SignalFair:
		return 1.4
	default:
		return 2.3
	}
}

// ComputeEnergy implements Eq (1)/(2): the energy of running the
// training computation on one execution target pinned at a single DVFS
// step for busySec seconds, then idling for idleSec seconds.
//
//	E = P_busy(f) × t_busy + P_idle × t_idle
//
// Eq (1) sums this per core; ProcSpec power ladders are already
// aggregated across the block's cores, so the sum is folded in.
func ComputeEnergy(proc *device.ProcSpec, step int, busySec, idleSec float64) float64 {
	if busySec < 0 {
		busySec = 0
	}
	if idleSec < 0 {
		idleSec = 0
	}
	return proc.PowerAt(step)*busySec + proc.IdleWatts*idleSec
}

// CommEnergy implements Eq (3): E_comm = P^S_TX × t_TX. txSec is the
// measured time spent transmitting (and receiving) the gradient
// payload.
func CommEnergy(s Signal, txSec float64) float64 {
	if txSec < 0 {
		txSec = 0
	}
	return TXWatts(s) * txSec
}

// IdleEnergy implements Eq (4): the energy a non-selected device burns
// sitting idle for the duration of the round.
func IdleEnergy(idleWatts, roundSec float64) float64 {
	if roundSec < 0 {
		roundSec = 0
	}
	return idleWatts * roundSec
}

// Phases breaks a participant's round into its energy-relevant parts.
// RoundSec must be at least SetupSec+CrunchSec+CommSec; the remainder
// is idle waiting for the global aggregation.
type Phases struct {
	// SetupSec is the fixed local-training overhead (framework
	// initialization, data pipeline) billed at Spec.SetupWatts.
	SetupSec float64
	// CrunchSec is the gradient-computation time billed at the
	// execution target's busy power.
	CrunchSec float64
	// CommSec is the payload transfer time billed at the TX power.
	CommSec float64
	// RoundSec is the full aggregation-round duration.
	RoundSec float64
}

// ParticipantRoundEnergy is the phase-aware participant energy model
// used by the round engine: setup + crunch + transmit + idle slack,
// plus the idle draw of the inactive compute block and radio.
func ParticipantRoundEnergy(spec *device.Spec, target device.Target, step int, sig Signal, ph Phases) float64 {
	busy := ph.SetupSec + ph.CrunchSec + ph.CommSec
	slack := ph.RoundSec - busy
	if slack < 0 {
		slack = 0
	}
	proc := spec.Proc(target)
	e := spec.SetupWatts * ph.SetupSec
	e += ComputeEnergy(proc, step, ph.CrunchSec, slack)
	e += CommEnergy(sig, ph.CommSec)
	other := spec.Proc(otherTarget(target))
	e += other.IdleWatts * ph.RoundSec
	radioIdle := ph.RoundSec - ph.CommSec
	if radioIdle < 0 {
		radioIdle = 0
	}
	e += spec.RadioIdleWatts * radioIdle
	return e
}

func otherTarget(t device.Target) device.Target {
	if t == device.CPU {
		return device.GPU
	}
	return device.CPU
}
