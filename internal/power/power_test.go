package power

import (
	"testing"
	"testing/quick"

	"autofl/internal/device"
)

func TestTXWattsOrdering(t *testing.T) {
	if !(TXWatts(SignalGood) < TXWatts(SignalFair) && TXWatts(SignalFair) < TXWatts(SignalPoor)) {
		t.Error("TX power must increase as signal degrades")
	}
}

func TestSignalStrings(t *testing.T) {
	if SignalGood.String() != "good" || SignalFair.String() != "fair" || SignalPoor.String() != "poor" {
		t.Error("Signal strings wrong")
	}
}

func TestComputeEnergyEq1(t *testing.T) {
	proc := &device.HighEndSpec().CPU
	step := proc.TopStep()
	got := ComputeEnergy(proc, step, 10, 5)
	want := proc.PowerAt(step)*10 + proc.IdleWatts*5
	if got != want {
		t.Errorf("ComputeEnergy = %v, want %v", got, want)
	}
}

func TestComputeEnergyNegativeDurationsClamp(t *testing.T) {
	proc := &device.LowEndSpec().GPU
	if got := ComputeEnergy(proc, 0, -1, -1); got != 0 {
		t.Errorf("negative durations should clamp to zero energy, got %v", got)
	}
}

func TestCommEnergyEq3(t *testing.T) {
	if got, want := CommEnergy(SignalPoor, 4), TXWatts(SignalPoor)*4; got != want {
		t.Errorf("CommEnergy = %v, want %v", got, want)
	}
	if CommEnergy(SignalGood, -3) != 0 {
		t.Error("negative TX time should clamp to zero")
	}
}

func TestIdleEnergyEq4(t *testing.T) {
	if got := IdleEnergy(0.5, 60); got != 30 {
		t.Errorf("IdleEnergy = %v, want 30", got)
	}
	if IdleEnergy(0.5, -1) != 0 {
		t.Error("negative round time should clamp to zero")
	}
}

func TestDVFSEnergyTradeoff(t *testing.T) {
	// Running the same compute-bound work at a lower DVFS step takes
	// longer but can cost less energy: the cubic dynamic power drops
	// faster than the runtime grows. Verify the ladder exposes that
	// trade-off (this is the slack AutoFL's second-level action
	// exploits).
	proc := &device.HighEndSpec().CPU
	const workGFLOP = 500.0
	top := proc.TopStep()
	eTop := ComputeEnergy(proc, top, workGFLOP/proc.GFLOPSAt(top), 0)
	better := false
	for s := 0; s < top; s++ {
		e := ComputeEnergy(proc, s, workGFLOP/proc.GFLOPSAt(s), 0)
		if e < eTop {
			better = true
			break
		}
	}
	if !better {
		t.Error("no DVFS step beats the top step in energy for fixed work")
	}
}

func TestParticipantRoundEnergySlackIsIdle(t *testing.T) {
	spec := device.MidEndSpec()
	// A round twice as long as the busy time should cost more than a
	// tight round: the extra time is idle but not free.
	tight := ParticipantRoundEnergy(spec, device.CPU, spec.CPU.TopStep(), SignalGood, Phases{CrunchSec: 10, CommSec: 2, RoundSec: 12})
	slack := ParticipantRoundEnergy(spec, device.CPU, spec.CPU.TopStep(), SignalGood, Phases{CrunchSec: 10, CommSec: 2, RoundSec: 24})
	if slack <= tight {
		t.Error("longer rounds must cost at least the extra idle energy")
	}
}

func TestParticipantRoundEnergyGPUCheaperAtSameDuration(t *testing.T) {
	// At identical durations, running on the lower-power GPU block
	// must cost less than the CPU block at top frequency.
	spec := device.HighEndSpec()
	ph := Phases{CrunchSec: 10, CommSec: 2, RoundSec: 12}
	cpu := ParticipantRoundEnergy(spec, device.CPU, spec.CPU.TopStep(), SignalGood, ph)
	gpu := ParticipantRoundEnergy(spec, device.GPU, spec.GPU.TopStep(), SignalGood, ph)
	if gpu >= cpu {
		t.Errorf("GPU round energy %v should be below CPU %v for equal durations", gpu, cpu)
	}
}

// Property: round energy is non-negative, and monotone in roundSec.
func TestParticipantRoundEnergyProperty(t *testing.T) {
	spec := device.LowEndSpec()
	f := func(setupRaw, compRaw, commRaw, extraRaw uint8) bool {
		ph := Phases{SetupSec: float64(setupRaw) / 16, CrunchSec: float64(compRaw) / 4, CommSec: float64(commRaw) / 8}
		ph.RoundSec = ph.SetupSec + ph.CrunchSec + ph.CommSec + float64(extraRaw)/4
		e := ParticipantRoundEnergy(spec, device.CPU, 3, SignalFair, ph)
		if e < 0 {
			return false
		}
		ph.RoundSec += 10
		return ParticipantRoundEnergy(spec, device.CPU, 3, SignalFair, ph) >= e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
