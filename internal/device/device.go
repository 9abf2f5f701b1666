// Package device models the heterogeneous mobile devices of the AutoFL
// evaluation: three performance tiers (high / mid / low end, Tables 2–3
// of the paper), each with a CPU and a GPU execution target, per-target
// DVFS frequency ladders with a cubic dynamic-power model, and a
// roofline effective-throughput model that makes compute-bound
// workloads (CNN) tier-sensitive and memory-bound workloads (LSTM)
// tier-insensitive, as characterized in §3.1.
package device

import "fmt"

// Category is a device performance tier.
type Category int

const (
	// High is a flagship device (Mi 8 Pro class).
	High Category = iota
	// Mid is a mainstream device (Galaxy S10e class).
	Mid
	// Low is an entry-level device (Moto X Force class).
	Low
	// NumCategories is the number of tiers.
	NumCategories = 3
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case High:
		return "H"
	case Mid:
		return "M"
	case Low:
		return "L"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Target is an on-device execution target for local training — the
// second-level AutoFL action (§4.1). DSP/NPU targets are out of scope,
// mirroring the paper (footnote 4).
type Target int

const (
	// CPU runs training on the big CPU cluster.
	CPU Target = iota
	// GPU runs training on the mobile GPU.
	GPU
	// NumTargets is the number of execution targets.
	NumTargets = 2
)

// String implements fmt.Stringer.
func (t Target) String() string {
	switch t {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// FreqStep is one DVFS voltage/frequency operating point.
type FreqStep struct {
	// FreqGHz is the clock frequency at this step.
	FreqGHz float64
	// BusyWatts is the full-utilization power draw at this step.
	BusyWatts float64
}

// ProcSpec describes one execution target of a device: its DVFS ladder,
// peak training throughput, and idle power.
type ProcSpec struct {
	// Name of the IP block, e.g. "Cortex A75" or "Adreno 630".
	Name string
	// Steps is the DVFS ladder in ascending frequency order.
	Steps []FreqStep
	// PeakGFLOPS is the training throughput at the top step.
	PeakGFLOPS float64
	// IdleWatts is the power draw while the block idles.
	IdleWatts float64
	// Cores is the number of cores Eq (1) sums over; power in Steps is
	// already aggregated across them.
	Cores int
	// TrainEfficiency is the fraction of theoretical peak throughput
	// that SGD training sustains on this block. Mobile training
	// frameworks reach only a small slice of the marketing GFLOPS
	// (irregular kernels, cache misses, scheduling); the factor applies
	// to both roofline terms so the compute/memory balance of a
	// workload is preserved.
	TrainEfficiency float64
}

// MaxFreq returns the top-step frequency.
func (p *ProcSpec) MaxFreq() float64 { return p.Steps[len(p.Steps)-1].FreqGHz }

// TopStep returns the index of the highest frequency step.
func (p *ProcSpec) TopStep() int { return len(p.Steps) - 1 }

// GFLOPSAt returns the peak throughput at a given step (linear in
// frequency).
func (p *ProcSpec) GFLOPSAt(step int) float64 {
	return p.PeakGFLOPS * p.Steps[clampStep(p, step)].FreqGHz / p.MaxFreq()
}

// PowerAt returns the busy power at a given step.
func (p *ProcSpec) PowerAt(step int) float64 {
	return p.Steps[clampStep(p, step)].BusyWatts
}

func clampStep(p *ProcSpec, step int) int {
	if step < 0 {
		return 0
	}
	if step >= len(p.Steps) {
		return len(p.Steps) - 1
	}
	return step
}

// Spec is the static hardware description of one device model.
type Spec struct {
	Category Category
	// Model is the commercial device name (Table 3).
	Model string
	CPU   ProcSpec
	GPU   ProcSpec
	// MemBWGBps is the sustained LPDDR bandwidth shared by CPU and GPU.
	MemBWGBps float64
	// RAMGB is the installed memory (Table 2).
	RAMGB float64
	// RadioIdleWatts is the network interface idle draw, part of the
	// device idle power in Eq (4). FL-eligible devices sit in deep
	// sleep (screen off, SoC suspended), so whole-device idle power is
	// a few tens of milliwatts.
	RadioIdleWatts float64
	// SetupSec is the fixed per-round local-training overhead
	// (framework initialization, data pipeline). It is what compresses
	// the tier performance gap at light per-round workloads, driving
	// the Fig 4 optimal-cluster shifts.
	SetupSec float64
	// SetupWatts is the power drawn during the setup phase.
	SetupWatts float64
	// InterferenceResilience scales how hard co-runner contention hits
	// this device (applied to both contention terms of the roofline).
	// High-end SoCs absorb a fixed-size co-runner with spare cores and
	// cache, which is why the paper measures the tier performance gap
	// *widening* under interference: 2.0x/3.1x loaded vs 1.7x/2.5x
	// clean (§3.2). Values below 1 dampen contention; zero means 1.
	InterferenceResilience float64
}

// Proc returns the ProcSpec for the requested target.
func (s *Spec) Proc(t Target) *ProcSpec {
	if t == GPU {
		return &s.GPU
	}
	return &s.CPU
}

// IdleWatts is the whole-device idle power: both compute blocks idle
// plus the radio, used for Eq (4) idle energy of non-participants.
func (s *Spec) IdleWatts() float64 {
	return s.CPU.IdleWatts + s.GPU.IdleWatts + s.RadioIdleWatts
}

// EffectiveGFLOPS is the roofline throughput of training on this device
// at the given target and DVFS step:
//
//	TrainEfficiency × min( peak(target, step) × (1 − computeContention),
//	                       intensity × memBW × (1 − memContention) )
//
// intensity is the workload's arithmetic intensity in FLOP/byte
// (workload.Model.Intensity); computeContention and memContention are
// in [0, 1) and come from the interference model. CPU co-runners steal
// CPU time slices but leave the GPU's shader cores alone, which is why
// the optimal execution target shifts CPU→GPU under interference
// (§6.2): only the memory-bandwidth term degrades for the GPU.
func (s *Spec) EffectiveGFLOPS(t Target, step int, intensity, computeContention, memContention float64) float64 {
	proc := s.Proc(t)
	peak := proc.GFLOPSAt(step)
	if r := s.InterferenceResilience; r > 0 {
		computeContention *= r
		memContention *= r
	}
	if t == GPU {
		// GPU compute is isolated from CPU-side co-runners.
		computeContention = 0
	}
	compute := peak * clamp01c(1-computeContention)
	memory := intensity * s.MemBWGBps * clamp01c(1-memContention)
	eff := proc.TrainEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	if memory < compute {
		return eff * memory
	}
	return eff * compute
}

func clamp01c(v float64) float64 {
	if v < 0.02 {
		return 0.02 // co-runners never fully starve training
	}
	if v > 1 {
		return 1
	}
	return v
}

// ladder builds a DVFS ladder with `steps` operating points from
// minFrac×maxGHz to maxGHz. Busy power follows the standard
// leakage + cubic dynamic model: P(x) = leak + dyn·x³ with x = f/fmax,
// where leak+dyn equals the measured peak busy power.
func ladder(steps int, maxGHz, peakWatts float64) []FreqStep {
	const (
		minFrac  = 0.35
		leakFrac = 0.15 // static leakage share of peak power
	)
	leak := peakWatts * leakFrac
	dyn := peakWatts - leak
	out := make([]FreqStep, steps)
	for i := 0; i < steps; i++ {
		x := minFrac + (1-minFrac)*float64(i)/float64(steps-1)
		out[i] = FreqStep{
			FreqGHz:   maxGHz * x,
			BusyWatts: leak + dyn*x*x*x,
		}
	}
	return out
}

// Sustained training efficiency relative to theoretical peak. Mobile
// SGD reaches only a small fraction of marketing GFLOPS; GPUs trail
// CPUs further because mobile training kernels are poorly tuned for
// them (the paper notes training's "limited programmability" on
// co-processors). The per-tier CPU values are calibrated so the
// effective tier gaps match the paper's measured 1.7x (H/M) and 2.5x
// (H/L) training-time ratios for compute-bound workloads (§3.1):
// lower tiers lose less to framework overhead than their raw GFLOPS
// gap suggests.
const (
	cpuTrainEfficiencyH = 0.100 // 153.6 -> 15.4 effective GFLOPS
	cpuTrainEfficiencyM = 0.113 // 80    ->  9.0 (H/M = 1.7)
	cpuTrainEfficiencyL = 0.117 // 52.8  ->  6.2 (H/L = 2.5)
	gpuTrainEfficiency  = 0.07
)

// HighEndSpec returns the flagship tier: Mi 8 Pro (Table 3) with the
// m4.large-equivalent 153.6 GFLOPS of Table 2.
func HighEndSpec() *Spec {
	return &Spec{
		Category: High,
		Model:    "Mi 8 Pro",
		CPU: ProcSpec{
			Name:            "Cortex A75",
			Steps:           ladder(23, 2.8, 5.5),
			PeakGFLOPS:      153.6,
			IdleWatts:       0.020,
			Cores:           8,
			TrainEfficiency: cpuTrainEfficiencyH,
		},
		GPU: ProcSpec{
			Name:            "Adreno 630",
			Steps:           ladder(7, 0.7, 2.8),
			PeakGFLOPS:      96, // training throughput; mobile GPUs trail CPUs for SGD
			IdleWatts:       0.008,
			Cores:           2,
			TrainEfficiency: gpuTrainEfficiency,
		},
		MemBWGBps:              25,
		RAMGB:                  8,
		RadioIdleWatts:         0.010,
		SetupSec:               10,
		SetupWatts:             2.6,
		InterferenceResilience: 0.75,
	}
}

// MidEndSpec returns the mainstream tier: Galaxy S10e with the
// t3a.medium-equivalent 80 GFLOPS.
func MidEndSpec() *Spec {
	return &Spec{
		Category: Mid,
		Model:    "Galaxy S10e",
		CPU: ProcSpec{
			Name:            "Mongoose",
			Steps:           ladder(21, 2.7, 3.9),
			PeakGFLOPS:      80,
			IdleWatts:       0.015,
			Cores:           8,
			TrainEfficiency: cpuTrainEfficiencyM,
		},
		GPU: ProcSpec{
			Name:            "Mali-G76",
			Steps:           ladder(9, 0.7, 2.4),
			PeakGFLOPS:      52,
			IdleWatts:       0.006,
			Cores:           2,
			TrainEfficiency: gpuTrainEfficiency,
		},
		MemBWGBps:              17,
		RAMGB:                  4,
		RadioIdleWatts:         0.010,
		SetupSec:               10,
		SetupWatts:             1.5,
		InterferenceResilience: 1.0,
	}
}

// LowEndSpec returns the entry tier: Moto X Force with the
// t2.small-equivalent 52.8 GFLOPS.
func LowEndSpec() *Spec {
	return &Spec{
		Category: Low,
		Model:    "Moto X Force",
		CPU: ProcSpec{
			Name:            "Cortex A57",
			Steps:           ladder(15, 1.9, 2.9),
			PeakGFLOPS:      52.8,
			IdleWatts:       0.012,
			Cores:           6,
			TrainEfficiency: cpuTrainEfficiencyL,
		},
		GPU: ProcSpec{
			Name:            "Adreno 430",
			Steps:           ladder(6, 0.6, 2.0),
			PeakGFLOPS:      34,
			IdleWatts:       0.005,
			Cores:           2,
			TrainEfficiency: gpuTrainEfficiency,
		},
		MemBWGBps:              13,
		RAMGB:                  2,
		RadioIdleWatts:         0.010,
		SetupSec:               10,
		SetupWatts:             1.1,
		InterferenceResilience: 1.1,
	}
}

// Device is one device instance in the fleet.
type Device struct {
	// ID is the fleet-unique identifier.
	ID int
	// Spec is the hardware description (shared across devices of the
	// same tier).
	Spec *Spec
}

// Category is a convenience accessor for the device tier.
func (d *Device) Category() Category { return d.Spec.Category }

// Counts per tier in the paper's 200-device testbed (§5.1): 30 high,
// 70 mid, 100 low — "representative of in-the-field system performance
// distribution".
const (
	DefaultHighCount = 30
	DefaultMidCount  = 70
	DefaultLowCount  = 100
)
