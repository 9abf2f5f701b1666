package sweep

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"autofl/internal/metrics"
)

// ResultStore collects cell results and aggregates replicate groups
// into mean/stddev summaries. It is safe for concurrent Add calls; the
// read-side views sort, so their output is independent of insertion
// order (and therefore of worker scheduling).
type ResultStore struct {
	mu      sync.Mutex
	results []Result
}

// NewStore returns an empty store.
func NewStore() *ResultStore { return &ResultStore{} }

// Add appends results to the store.
func (s *ResultStore) Add(rs ...Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results = append(s.results, rs...)
}

// Len reports the number of stored results.
func (s *ResultStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.results)
}

// Failed reports the number of stored results carrying a per-cell
// error — cells that panicked, errored, or were quarantined by a
// distributed executor's retry budget. A sweep with Failed() > 0
// completed with explicit holes rather than silently thin summaries.
func (s *ResultStore) Failed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, r := range s.results {
		if r.Err != "" {
			n++
		}
	}
	return n
}

// Results returns the stored results sorted by cell (axes, then
// replicate index).
func (s *ResultStore) Results() []Result {
	s.mu.Lock()
	out := append([]Result(nil), s.results...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Cell.less(out[j].Cell) })
	return out
}

// Stats is a mean/standard-deviation pair over a replicate group. The
// deviation is the sample standard deviation (n-1 denominator); it is
// zero for groups of one.
type Stats struct {
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
}

// statsOf computes Stats over xs.
func statsOf(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	m := metrics.Mean(xs)
	if len(xs) == 1 {
		return Stats{Mean: m}
	}
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return Stats{Mean: m, Stddev: math.Sqrt(ss / float64(len(xs)-1))}
}

// Summary aggregates one replicate group (a cell minus its replicate
// index): per-metric mean/stddev over the group's non-errored runs.
type Summary struct {
	Workload string `json:"workload"`
	Setting  string `json:"setting"`
	Data     string `json:"data"`
	Env      string `json:"env"`
	Policy   string `json:"policy"`
	// The extension axes mirror Cell's: empty for groups at the
	// default (synchronous, explicit-fleet, batteryless)
	// configuration, so legacy grids summarize to byte-identical JSON.
	Mode    string `json:"mode,omitempty"`
	Alpha   string `json:"alpha,omitempty"`
	Devices string `json:"devices,omitempty"`
	Sample  string `json:"sample,omitempty"`
	Battery string `json:"battery,omitempty"`
	// Replicates counts the group's successful runs; Errors the
	// failed (or panicked) ones.
	Replicates int `json:"replicates"`
	Errors     int `json:"errors,omitempty"`
	// ConvergedFrac is the fraction of successful runs that reached
	// the accuracy target.
	ConvergedFrac   float64 `json:"converged_frac"`
	Rounds          Stats   `json:"rounds"`
	TimeToTargetSec Stats   `json:"time_to_target_sec"`
	EnergyToTargetJ Stats   `json:"energy_to_target_j"`
	GlobalPPW       Stats   `json:"global_ppw"`
	LocalPPW        Stats   `json:"local_ppw"`
	FinalAccuracy   Stats   `json:"final_accuracy"`
	// MeanStaleness aggregates the runs' mean update staleness. It is
	// emitted only for groups on an explicit aggregation mode (a
	// pointer because struct omitempty never fires), keeping legacy
	// output byte-identical.
	MeanStaleness *Stats `json:"mean_staleness,omitempty"`
	// ParticipationJain and BatteryMeanFrac aggregate the battery
	// subsystem's fairness index and final mean state of charge,
	// emitted only for groups on an explicit battery preset — same
	// pointer convention as MeanStaleness.
	ParticipationJain *Stats `json:"participation_jain,omitempty"`
	BatteryMeanFrac   *Stats `json:"battery_mean_frac,omitempty"`
}

// axisValues returns the summary's axis fields in axes order.
func (s *Summary) axisValues() [len(axes)]*string {
	return [...]*string{
		&s.Workload, &s.Setting, &s.Data, &s.Env, &s.Policy,
		&s.Mode, &s.Alpha, &s.Devices, &s.Sample, &s.Battery,
	}
}

// tier returns the summary's values on the axes of one extension tier
// and whether any of them is off its default.
func (s Summary) tier(t int) (vals []string, on bool) {
	for i, p := range s.axisValues() {
		if axes[i].tier == t {
			vals = append(vals, *p)
			on = on || *p != ""
		}
	}
	return vals, on
}

// Summaries aggregates the store's results by replicate group, sorted
// by cell axes.
func (s *ResultStore) Summaries() []Summary {
	results := s.Results()
	var out []Summary
	for i := 0; i < len(results); {
		j := i
		for j < len(results) && sameGroup(results[j].Cell, results[i].Cell) {
			j++
		}
		out = append(out, summarize(results[i:j]))
		i = j
	}
	return out
}

// summarize folds one sorted replicate group into a Summary.
func summarize(group []Result) Summary {
	c := group[0].Cell
	var sum Summary
	cv := c.axisValues()
	for i, p := range sum.axisValues() {
		*p = *cv[i]
	}
	var rounds, timeTo, energy, gppw, lppw, acc, stale, jain, batt []float64
	converged := 0
	for _, r := range group {
		if r.Err != "" {
			sum.Errors++
			continue
		}
		sum.Replicates++
		if r.Outcome.Converged {
			converged++
		}
		rounds = append(rounds, float64(r.Outcome.Rounds))
		timeTo = append(timeTo, r.Outcome.TimeToTargetSec)
		energy = append(energy, r.Outcome.EnergyToTargetJ)
		gppw = append(gppw, r.Outcome.GlobalPPW)
		lppw = append(lppw, r.Outcome.LocalPPW)
		acc = append(acc, r.Outcome.FinalAccuracy)
		stale = append(stale, r.Outcome.MeanStaleness)
		jain = append(jain, r.Outcome.ParticipationJain)
		batt = append(batt, r.Outcome.BatteryMeanFrac)
	}
	if sum.Replicates > 0 {
		sum.ConvergedFrac = float64(converged) / float64(sum.Replicates)
	}
	sum.Rounds = statsOf(rounds)
	sum.TimeToTargetSec = statsOf(timeTo)
	sum.EnergyToTargetJ = statsOf(energy)
	sum.GlobalPPW = statsOf(gppw)
	sum.LocalPPW = statsOf(lppw)
	sum.FinalAccuracy = statsOf(acc)
	if c.Mode != "" {
		st := statsOf(stale)
		sum.MeanStaleness = &st
	}
	if c.Battery != "" {
		j, b := statsOf(jain), statsOf(batt)
		sum.ParticipationJain = &j
		sum.BatteryMeanFrac = &b
	}
	return sum
}

// export is the JSON document WriteJSON emits.
type export struct {
	Results   []Result  `json:"results"`
	Summaries []Summary `json:"summaries"`
}

// WriteJSON writes the sorted results and their summaries as indented
// JSON. The bytes are a pure function of the stored results: two
// sweeps of the same grid and seed produce identical output whatever
// their parallelism.
func (s *ResultStore) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(export{Results: s.Results(), Summaries: s.Summaries()})
}

// csvHeader names the base WriteCSV columns.
var csvHeader = []string{
	"workload", "setting", "data", "env", "policy",
	"replicates", "errors", "converged_frac",
	"rounds_mean", "rounds_stddev",
	"time_to_target_sec_mean", "time_to_target_sec_stddev",
	"energy_to_target_j_mean", "energy_to_target_j_stddev",
	"global_ppw_mean", "global_ppw_stddev",
	"local_ppw_mean", "local_ppw_stddev",
	"final_accuracy_mean", "final_accuracy_stddev",
}

// csvTiers are the gated CSV column groups, one per extension tier in
// tier order: the tier's axis columns, then the statistics it gates. A
// group is appended only when some summary sits off the default on one
// of its axes, so sweeps that never touch a tier keep their exact CSV
// bytes.
var csvTiers = [...]struct {
	tier  int
	stats []string
	of    func(Summary) []*Stats
}{
	{1, []string{"mean_staleness"}, func(s Summary) []*Stats { return []*Stats{s.MeanStaleness} }},
	{2, []string{"participation_jain", "battery_mean_frac"},
		func(s Summary) []*Stats { return []*Stats{s.ParticipationJain, s.BatteryMeanFrac} }},
}

// WriteCSV writes one row per replicate-group summary.
func (s *ResultStore) WriteCSV(w io.Writer) error {
	sums := s.Summaries()
	var on [len(csvTiers)]bool
	for _, sum := range sums {
		for k, ct := range csvTiers {
			_, set := sum.tier(ct.tier)
			on[k] = on[k] || set
		}
	}
	header := append([]string(nil), csvHeader...)
	for k, ct := range csvTiers {
		if !on[k] {
			continue
		}
		for _, a := range axes {
			if a.tier == ct.tier {
				header = append(header, a.name)
			}
		}
		for _, st := range ct.stats {
			header = append(header, st+"_mean", st+"_stddev")
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, sum := range sums {
		row := []string{
			sum.Workload, sum.Setting, sum.Data, sum.Env, sum.Policy,
			strconv.Itoa(sum.Replicates), strconv.Itoa(sum.Errors), f(sum.ConvergedFrac),
			f(sum.Rounds.Mean), f(sum.Rounds.Stddev),
			f(sum.TimeToTargetSec.Mean), f(sum.TimeToTargetSec.Stddev),
			f(sum.EnergyToTargetJ.Mean), f(sum.EnergyToTargetJ.Stddev),
			f(sum.GlobalPPW.Mean), f(sum.GlobalPPW.Stddev),
			f(sum.LocalPPW.Mean), f(sum.LocalPPW.Stddev),
			f(sum.FinalAccuracy.Mean), f(sum.FinalAccuracy.Stddev),
		}
		for k, ct := range csvTiers {
			if !on[k] {
				continue
			}
			vals, _ := sum.tier(ct.tier)
			row = append(row, vals...)
			for _, st := range ct.of(sum) {
				if st == nil { // gated off for this group: blank cells
					row = append(row, "", "")
				} else {
					row = append(row, f(st.Mean), f(st.Stddev))
				}
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
