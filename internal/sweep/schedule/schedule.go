// Package schedule orders sweep cells by predicted execution cost so
// the worker pool drains the long poles first. With a FIFO claim
// order, a grid's slowest cells (MobileNet at the full horizon) can
// land on the last workers and stretch the tail of the run; claiming
// them first keeps the pool busy end to end. Ordering never changes
// output — the engine keys results by cell identity and every exported
// view sorts — so a cost-scheduled run is byte-identical to FIFO.
//
// The cost model is deliberately simple: a cell's cost is its
// workload's per-round weight times the round horizon (replicates are
// separate cells, so replication multiplies cell count, not per-cell
// cost). Static() weights workloads by their training FLOPs per
// sample; Calibrate() replaces those priors with measured
// seconds-per-round from cached wall-clock observations, falling back
// to FLOPs-scaled estimates for workloads never observed.
package schedule

import (
	"sort"

	"autofl/internal/workload"
)

// Observation is one measured cell execution: the workload it ran, the
// round horizon it ran to, and the wall-clock it took. The sweep cache
// records one per executed cell.
type Observation struct {
	Workload string
	Rounds   int
	Seconds  float64
}

// Model predicts per-cell execution cost. The zero value predicts a
// uniform cost of zero for every cell; use Static or Calibrate.
type Model struct {
	// secPerRound maps a workload name to its per-round cost. Units are
	// seconds for calibrated models and arbitrary (FLOPs-proportional)
	// for static ones; predictions are comparable within one model only.
	secPerRound map[string]float64
	// fallback prices workloads absent from secPerRound.
	fallback float64
}

// staticWeight is the prior per-round weight of a workload: its
// training FLOPs per sample, normalized so an unknown workload weighs
// 1. Only ratios matter for ordering.
func staticWeight(name string) float64 {
	m := workload.ByName(name)
	if m == nil {
		return 1
	}
	ref := workload.CNNMNIST().TrainFLOPsPerSample()
	return m.TrainFLOPsPerSample() / ref
}

// Static returns the prior model: workloads weighted by training FLOPs
// per sample, relative to CNN-MNIST. An empty or unknown workload name
// (a default-axis cell) weighs 1.
func Static() Model {
	m := Model{secPerRound: map[string]float64{}, fallback: 1}
	for _, w := range workload.All() {
		m.secPerRound[w.Name] = staticWeight(w.Name)
	}
	return m
}

// Calibrate fits a model to measured executions: each observed
// workload's cost is its mean seconds-per-round, and unobserved
// workloads are priced by scaling their static FLOPs weight with the
// mean observed seconds-per-weight (so a calibrated model stays in one
// unit system). With no usable observations it degrades to Static.
func Calibrate(obs []Observation) Model {
	sum := map[string]float64{}
	n := map[string]int{}
	for _, o := range obs {
		if o.Rounds <= 0 || o.Seconds <= 0 {
			continue
		}
		sum[o.Workload] += o.Seconds / float64(o.Rounds)
		n[o.Workload]++
	}
	if len(sum) == 0 {
		return Static()
	}
	m := Model{secPerRound: map[string]float64{}}
	// scale converts static weights to observed seconds-per-round.
	var scaleSum float64
	for w, s := range sum {
		mean := s / float64(n[w])
		m.secPerRound[w] = mean
		scaleSum += mean / staticWeight(w)
	}
	scale := scaleSum / float64(len(sum))
	for _, w := range workload.All() {
		if _, ok := m.secPerRound[w.Name]; !ok {
			m.secPerRound[w.Name] = scale * staticWeight(w.Name)
		}
	}
	m.fallback = scale
	return m
}

// Predict returns the model's cost for one cell of the given workload
// run to the given horizon. Costs are non-negative and comparable
// within one model.
func (m Model) Predict(workloadName string, rounds int) float64 {
	if rounds < 1 {
		rounds = 1
	}
	w, ok := m.secPerRound[workloadName]
	if !ok {
		w = m.fallback
	}
	return w * float64(rounds)
}

// Order is the scheduling primitive: a permutation of [0, n) sorted by
// descending cost(i), stable under equal costs (tied indices keep
// their relative order). Pass it to sweep.Options.Order. Callers
// compose arbitrary cost functions — typically Predict per cell, with
// already-cached cells priced at zero so real work drains first.
func Order(n int, cost func(i int) float64) []int {
	if n <= 0 {
		return nil
	}
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = cost(i)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	return order
}
