// Package experiments reproduces every figure and table of the AutoFL
// paper's evaluation (§3 characterization and §6 results): one runner
// per figure, each returning structured series that cmd/autofl-bench
// renders next to the paper's reported numbers.
//
// `autofl-bench -list` prints the runner identifiers; the experiment
// table in the repository README maps each one to its paper reference.
package experiments

import (
	"fmt"
	"strings"

	"autofl/internal/core"
	"autofl/internal/data"
	"autofl/internal/metrics"
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/sweep"
	"autofl/internal/sweep/schedule"
	"autofl/internal/workload"
)

// Options tune an experiment run.
type Options struct {
	// Seed drives all randomness; equal seeds reproduce results.
	Seed uint64
	// Quick shrinks horizons for benchmarks and smoke tests; figures
	// keep their shape but with more noise.
	Quick bool
}

// rounds returns the experiment horizon.
func (o Options) rounds(full int) int {
	if o.Quick {
		q := full / 5
		if q < 40 {
			q = 40
		}
		return q
	}
	return full
}

// Point is one measurement in a series.
type Point struct {
	X string
	Y float64
}

// Series is one labeled line/bar group of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced result with its paper reference.
type Figure struct {
	// ID is the experiment identifier that `autofl-bench -list` prints
	// (e.g. "fig08").
	ID string
	// Title summarizes the experiment.
	Title string
	// PaperClaim states what the paper reports; Render prints it
	// beside the measured series.
	PaperClaim string
	// Series holds the measured data.
	Series []Series
	// Notes carries measured headline numbers and caveats.
	Notes []string
}

// Render formats the figure as aligned text.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&b, "paper: %s\n", f.PaperClaim)
	if len(f.Series) > 0 {
		// Build a column per distinct X, a row per series.
		var xs []string
		seen := map[string]bool{}
		for _, s := range f.Series {
			for _, p := range s.Points {
				if !seen[p.X] {
					seen[p.X] = true
					xs = append(xs, p.X)
				}
			}
		}
		header := append([]string{"series"}, xs...)
		var rows [][]string
		for _, s := range f.Series {
			row := make([]string, len(header))
			row[0] = s.Label
			for i := range xs {
				row[i+1] = "-"
			}
			for _, p := range s.Points {
				for i, x := range xs {
					if x == p.X {
						row[i+1] = fmt.Sprintf("%.2f", p.Y)
					}
				}
			}
			rows = append(rows, row)
		}
		b.WriteString(metrics.Table(header, rows))
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// seriesValue fetches a point by label and x.
func (f *Figure) seriesValue(label, x string) (float64, bool) {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p.Y, true
			}
		}
	}
	return 0, false
}

// baseConfig is the standard evaluation configuration: CNN-MNIST, S3,
// IID, field conditions.
func baseConfig(o Options) sim.Config {
	return sim.Config{
		Workload:  workload.CNNMNIST(),
		Params:    workload.S3,
		Data:      data.IdealIID,
		Env:       sim.EnvField(),
		Seed:      o.Seed,
		MaxRounds: o.rounds(1000),
	}
}

// runPolicy executes one policy on a config.
func runPolicy(cfg sim.Config, p sim.Policy) *sim.Result {
	return sim.New(cfg).Run(p)
}

// runPolicies executes each policy on the config through the sweep
// engine's worker pool. Results come back in policy order, and every
// run constructs its own simulator from its own seed, so the figures
// are identical to the former serial loops.
func runPolicies(cfg sim.Config, ps []sim.Policy) []*sim.Result {
	return sweep.Map(0, len(ps), func(i int) *sim.Result {
		return runPolicy(cfg, ps[i])
	})
}

// runConfigs executes ps[i] on cfgs[i] pairwise on the worker pool,
// claiming the costliest configurations first (workload FLOPs ×
// horizon, via the sweep scheduler's static model) so a mixed-workload
// figure doesn't leave its MobileNet runs for last. Results come back
// in config order regardless of claim order.
func runConfigs(cfgs []sim.Config, ps []sim.Policy) []*sim.Result {
	model := schedule.Static()
	order := schedule.Order(len(cfgs), func(i int) float64 {
		return model.Predict(cfgs[i].Workload.Name, cfgs[i].MaxRounds)
	})
	return sweep.MapOrder(0, len(cfgs), order, func(i int) *sim.Result {
		return runPolicy(cfgs[i], ps[i])
	})
}

// policySet builds the §5.1 policy lineup. AutoFL is constructed fresh
// per call (it learns state).
func policySet(seed uint64) []sim.Policy {
	return []sim.Policy{
		policy.NewRandom(seed),
		policy.NewPower(seed),
		policy.NewPerformance(seed),
		policy.NewOParticipant(),
		policy.NewOFL(),
		core.New(core.DefaultOptions(seed)),
	}
}

// All runs every experiment and returns the figures in paper order.
func All(o Options) []*Figure {
	return []*Figure{
		Fig01Headroom(o),
		Fig04GlobalParams(o),
		Fig05RuntimeVariance(o),
		Fig06DataHeterogeneity(o),
		Fig08Overview(o),
		Fig09GlobalParamAdaptability(o),
		Fig10VarianceAdaptability(o),
		Fig11HeterogeneityAdaptability(o),
		Fig12PredictionAccuracy(o),
		Fig13PriorWork(o),
		Fig14PriorWorkStress(o),
		Fig15RewardConvergence(o),
		OverheadAnalysis(o),
		EnergyModelError(o),
		Table4Characterization(o),
		HyperparamSensitivity(o),
		RealFedAvgValidation(o),
	}
}

// ByID returns the named experiment runner.
func ByID(id string) (func(Options) *Figure, bool) {
	m := map[string]func(Options) *Figure{
		"fig01":        Fig01Headroom,
		"fig04":        Fig04GlobalParams,
		"fig05":        Fig05RuntimeVariance,
		"fig06":        Fig06DataHeterogeneity,
		"fig08":        Fig08Overview,
		"fig09":        Fig09GlobalParamAdaptability,
		"fig10":        Fig10VarianceAdaptability,
		"fig11":        Fig11HeterogeneityAdaptability,
		"fig12":        Fig12PredictionAccuracy,
		"fig13":        Fig13PriorWork,
		"fig14":        Fig14PriorWorkStress,
		"fig15":        Fig15RewardConvergence,
		"overhead":     OverheadAnalysis,
		"energy-error": EnergyModelError,
		"table4":       Table4Characterization,
		"hyper":        HyperparamSensitivity,
		"realfl":       RealFedAvgValidation,
	}
	f, ok := m[id]
	return f, ok
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	return []string{
		"fig01", "fig04", "fig05", "fig06", "fig08", "fig09", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "overhead",
		"energy-error", "table4", "hyper", "realfl",
	}
}
