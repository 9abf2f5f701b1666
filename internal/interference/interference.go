// Package interference models on-device co-runner interference — the
// stochastic runtime variance source of AutoFL §3.2 and §5.2. The
// paper emulates interference with a synthetic application that
// follows the CPU and memory utilization patterns of web browsing; we
// do the same with a phase-based generator (page load bursts, idle
// reading, scrolling), plus the mapping from observed co-runner
// utilization to training-throughput contention (time-slice and cache
// competition, memory-bandwidth sharing, thermal throttling).
package interference

import "autofl/internal/rng"

// Load is one round's observed co-runner activity on a device: the
// S_Co_CPU and S_Co_MEM state features of Table 1, both in [0, 1].
type Load struct {
	CPUUtil float64
	MemUtil float64
}

// phase is one behavioural mode of the synthetic web-browsing
// co-runner.
type phase struct {
	weight          float64
	cpuMean, cpuStd float64
	memMean, memStd float64
}

// Browsing phases: a page load saturates cores, reading idles,
// scrolling sits in between.
var browsingPhases = []phase{
	{weight: 0.40, cpuMean: 0.90, cpuStd: 0.06, memMean: 0.65, memStd: 0.10}, // page load
	{weight: 0.30, cpuMean: 0.50, cpuStd: 0.10, memMean: 0.45, memStd: 0.10}, // scroll/render
	{weight: 0.30, cpuMean: 0.12, cpuStd: 0.05, memMean: 0.30, memStd: 0.08}, // idle reading
}

// persistence is the probability that the co-runner state observed at
// selection time persists through the round's execution. The
// complement is the "surprise" runtime variance that no selector can
// observe away — a co-runner launched after the round began.
const persistence = 0.6

// WeightedLoad pairs a representative co-runner load with its
// occurrence probability, for analytic risk estimates.
type WeightedLoad struct {
	Weight float64
	Load   Load
}

// phaseWeights and weightedLoads are derived once from the static
// phase table, so per-round sampling and per-candidate risk scoring
// allocate nothing.
var (
	phaseWeights = func() []float64 {
		w := make([]float64, len(browsingPhases))
		for i, p := range browsingPhases {
			w[i] = p.weight
		}
		return w
	}()
	weightedLoads = func() []WeightedLoad {
		out := make([]WeightedLoad, len(browsingPhases))
		for i, p := range browsingPhases {
			out[i] = WeightedLoad{Weight: p.weight, Load: Load{CPUUtil: p.cpuMean, MemUtil: p.memMean}}
		}
		return out
	}()
)

// WeightedLoads returns the phase mixture at its mean utilizations.
// The slice is shared; callers must not mutate it.
func WeightedLoads() []WeightedLoad {
	return weightedLoads
}

// SurpriseProb is the probability that a device's co-runner state
// changes between selection and execution and a co-runner is running.
func (m Model) SurpriseProb() float64 { return (1 - persistence) * m.Prob }

// Actual returns the load in effect during round execution given the
// load observed at selection time: usually the observed load persists,
// otherwise the state is redrawn (a browser opened or closed
// mid-round).
func (m Model) Actual(s *rng.Stream, observed Load) Load {
	if s.Bool(persistence) {
		return observed
	}
	return m.Sample(s)
}

// Model is the fleet-level interference configuration.
type Model struct {
	// Prob is the probability that a given device has a co-running
	// application during a given round. The paper launches the
	// co-runner on a random subset of devices.
	Prob float64
}

// None returns the interference-free environment (Fig 5a / Fig 10a).
func None() Model { return Model{Prob: 0} }

// Default returns the paper's interference environment: a web-browsing
// co-runner appears on a random subset of devices each round.
func Default() Model { return Model{Prob: 0.5} }

// Sample draws one device's co-runner load for one round.
func (m Model) Sample(s *rng.Stream) Load {
	if !s.Bool(m.Prob) {
		return Load{}
	}
	p := browsingPhases[s.Categorical(phaseWeights)]
	return Load{
		CPUUtil: s.ClampedNormal(p.cpuMean, p.cpuStd, 0, 1),
		MemUtil: s.ClampedNormal(p.memMean, p.memStd, 0, 1),
	}
}

// CPUContention maps co-runner CPU utilization to the fraction of
// training CPU throughput lost: time-slice competition scaled by the
// co-runner's demand, a cache-pollution term, and a thermal-throttling
// penalty once the SoC runs hot (§6.2 names exactly these mechanisms:
// "competition for CPU time slice and cache" and "frequent thermal
// throttling").
func (l Load) CPUContention() float64 {
	c := 0.50*l.CPUUtil + 0.12*l.CPUUtil // time slice + cache pollution
	if l.CPUUtil > 0.75 {
		c += 0.18 // thermal throttling kicks in under sustained load
	}
	if c > 0.9 {
		c = 0.9
	}
	return c
}

// MemContention maps co-runner memory usage to the fraction of memory
// bandwidth lost to the co-runner. Memory interference hits both CPU
// and GPU training since the SoC memory controller is shared.
func (l Load) MemContention() float64 {
	c := 0.45 * l.MemUtil
	if c > 0.8 {
		c = 0.8
	}
	return c
}
