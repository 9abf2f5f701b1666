// Package metrics computes and formats the evaluation metrics the
// AutoFL paper reports: normalized performance-per-watt (global and
// local), convergence-time improvement, and summary statistics, plus
// plain-text table rendering for the experiment harness.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"autofl/internal/sim"
)

// Comparison normalizes a set of runs against a named baseline, the
// way every PPW figure in the paper is presented ("normalized to the
// FedAvg-Random baseline").
type Comparison struct {
	Baseline string
	Rows     []Row
}

// Row is one policy's normalized standing.
type Row struct {
	Policy string
	// GlobalPPWx and LocalPPWx are the PPW improvements over the
	// baseline (1.0 = parity).
	GlobalPPWx float64
	LocalPPWx  float64
	// ConvTimex is the convergence-time improvement over the baseline
	// (>1 means faster).
	ConvTimex float64
	// Converged echoes whether the run reached the accuracy target.
	Converged bool
	// ConvergedRound is the 1-based convergence round; 0 means the
	// run never converged (rendered distinctly, never as "round 0").
	ConvergedRound int
	// FinalAccuracy is the end-of-run model accuracy.
	FinalAccuracy float64
	// Rounds is the number of executed rounds.
	Rounds int
}

// Compare normalizes results against the run whose policy name equals
// baseline (which must be present).
func Compare(baseline string, results []*sim.Result) (Comparison, error) {
	var base *sim.Result
	for _, r := range results {
		if r.Policy == baseline {
			base = r
			break
		}
	}
	if base == nil {
		return Comparison{}, fmt.Errorf("metrics: baseline %q not among results", baseline)
	}
	out := Comparison{Baseline: baseline}
	for _, r := range results {
		out.Rows = append(out.Rows, Row{
			Policy:         r.Policy,
			GlobalPPWx:     ratio(r.GlobalPPW(), base.GlobalPPW()),
			LocalPPWx:      ratio(r.LocalPPW(), base.LocalPPW()),
			ConvTimex:      ratio(effectiveTime(base), effectiveTime(r)),
			Converged:      r.Converged,
			ConvergedRound: r.ConvergedRound,
			FinalAccuracy:  r.FinalAccuracy,
			Rounds:         r.Rounds,
		})
	}
	return out, nil
}

// effectiveTime is time-to-target for converged runs; for stalled runs
// it scales the elapsed time by the inverse progress, approximating
// the time a run *would* need (infinite when progress is zero).
func effectiveTime(r *sim.Result) float64 {
	p := r.Progress()
	if p <= 0 {
		return math.Inf(1)
	}
	return r.TimeToTargetSec / p
}

func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return a / b
}

// Mean returns the arithmetic mean; zero for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table renders rows as an aligned plain-text table. Each row must
// have the same number of cells as the header.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// FormatX renders a normalized multiplier the way the paper does
// ("4.7x"); infinities become ">100x" (a baseline that never made
// progress).
func FormatX(v float64) string {
	if math.IsInf(v, 1) {
		return ">100x"
	}
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", v)
}

// FormatRound renders a convergence round: the round number for a
// converged run (falling back to the executed count when only that is
// known), "never" for ConvergedRound == 0 on an unconverged run — so
// a never-converged result cannot be misread as round 0.
func FormatRound(converged bool, convergedRound, rounds int) string {
	if !converged {
		return "never"
	}
	if convergedRound == 0 {
		convergedRound = rounds
	}
	return fmt.Sprintf("%d", convergedRound)
}

// String renders the comparison as a table.
func (c Comparison) String() string {
	rows := make([][]string, 0, len(c.Rows))
	for _, r := range c.Rows {
		conv := FormatRound(r.Converged, r.ConvergedRound, r.Rounds)
		rows = append(rows, []string{
			r.Policy,
			FormatX(r.GlobalPPWx),
			FormatX(r.LocalPPWx),
			FormatX(r.ConvTimex),
			fmt.Sprintf("%.3f", r.FinalAccuracy),
			conv,
		})
	}
	return Table(
		[]string{"policy", "global-ppw", "local-ppw", "conv-time", "accuracy", "rounds"},
		rows,
	)
}
