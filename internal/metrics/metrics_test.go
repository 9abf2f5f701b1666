package metrics

import (
	"math"
	"strings"
	"testing"

	"autofl/internal/sim"
)

func result(policy string, energy, time float64, converged bool, acc float64) *sim.Result {
	return &sim.Result{
		Policy:                     policy,
		Converged:                  converged,
		EnergyToTargetJ:            energy,
		ParticipantEnergyToTargetJ: energy / 2,
		TimeToTargetSec:            time,
		TargetAccuracy:             0.9,
		AccuracyFloor:              0.1,
		FinalAccuracy:              acc,
		Rounds:                     100,
	}
}

func TestCompareNormalizesToBaseline(t *testing.T) {
	base := result("base", 1000, 500, true, 0.9)
	twice := result("better", 500, 250, true, 0.9)
	cmp, err := Compare("base", []*sim.Result{base, twice})
	if err != nil {
		t.Fatal(err)
	}
	var baseRow, betterRow *Row
	for i := range cmp.Rows {
		switch cmp.Rows[i].Policy {
		case "base":
			baseRow = &cmp.Rows[i]
		case "better":
			betterRow = &cmp.Rows[i]
		}
	}
	if baseRow == nil || betterRow == nil {
		t.Fatal("missing rows")
	}
	if math.Abs(baseRow.GlobalPPWx-1) > 1e-9 {
		t.Errorf("baseline PPWx = %v, want 1", baseRow.GlobalPPWx)
	}
	if math.Abs(betterRow.GlobalPPWx-2) > 1e-9 {
		t.Errorf("half-energy PPWx = %v, want 2", betterRow.GlobalPPWx)
	}
	if math.Abs(betterRow.ConvTimex-2) > 1e-9 {
		t.Errorf("half-time ConvTimex = %v, want 2", betterRow.ConvTimex)
	}
}

func TestCompareMissingBaseline(t *testing.T) {
	_, err := Compare("nope", []*sim.Result{result("a", 1, 1, true, 0.9)})
	if err == nil {
		t.Error("missing baseline should error")
	}
}

func TestCompareNonConvergedBaseline(t *testing.T) {
	// A stalled baseline (the Fig 11c/d situation) yields large or
	// infinite improvements for converged policies — never a panic.
	base := result("base", 1000, 500, false, 0.1) // zero progress
	good := result("good", 500, 250, true, 0.9)
	cmp, err := Compare("base", []*sim.Result{base, good})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cmp.Rows {
		if r.Policy == "good" && !math.IsInf(r.ConvTimex, 1) {
			t.Errorf("conv-time vs zero-progress baseline = %v, want +Inf", r.ConvTimex)
		}
	}
}

func TestEffectiveTimeScalesWithProgress(t *testing.T) {
	half := result("h", 100, 100, false, 0.5)
	want := 100 / half.Progress()
	if got := effectiveTime(half); math.Abs(got-want) > 1e-9 {
		t.Errorf("effectiveTime at partial progress = %v, want %v", got, want)
	}
	full := result("f", 100, 100, true, 0.9)
	if got := effectiveTime(full); got != 100 {
		t.Errorf("effectiveTime converged = %v, want 100", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"xxxx", "y"}, {"z", "w"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a   ") {
		t.Errorf("header not padded: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("missing separator: %q", lines[1])
	}
}

func TestFormatX(t *testing.T) {
	if FormatX(4.72) != "4.7x" {
		t.Errorf("FormatX = %q", FormatX(4.72))
	}
	if FormatX(math.Inf(1)) != ">100x" {
		t.Errorf("FormatX(+Inf) = %q", FormatX(math.Inf(1)))
	}
	if FormatX(math.NaN()) != "n/a" {
		t.Errorf("FormatX(NaN) = %q", FormatX(math.NaN()))
	}
}

func TestComparisonString(t *testing.T) {
	base := result("base", 1000, 500, true, 0.9)
	cmp, _ := Compare("base", []*sim.Result{base})
	s := cmp.String()
	if !strings.Contains(s, "base") || !strings.Contains(s, "global-ppw") {
		t.Errorf("comparison table missing content:\n%s", s)
	}
}

// TestFormatRound pins the never-converged guard: ConvergedRound == 0
// renders as "never" (unconverged) or falls back to the executed
// count (converged without a recorded round), never as round 0.
func TestFormatRound(t *testing.T) {
	if got := FormatRound(false, 0, 500); got != "never" {
		t.Errorf("unconverged = %q, want never", got)
	}
	if got := FormatRound(true, 42, 42); got != "42" {
		t.Errorf("converged = %q, want 42", got)
	}
	if got := FormatRound(true, 0, 100); got != "100" {
		t.Errorf("round-fallback = %q, want 100", got)
	}
}

// TestCompareCarriesConvergedRound checks the round is plumbed into
// rows and rendered distinctly for never-converged runs.
func TestCompareCarriesConvergedRound(t *testing.T) {
	base := result("base", 1000, 500, true, 0.9)
	base.ConvergedRound = 77
	stalled := result("stalled", 1000, 500, false, 0.5)
	cmp, err := Compare("base", []*sim.Result{base, stalled})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Rows[0].ConvergedRound != 77 {
		t.Errorf("base row round = %d, want 77", cmp.Rows[0].ConvergedRound)
	}
	s := cmp.String()
	if !strings.Contains(s, "77") || !strings.Contains(s, "never") {
		t.Errorf("comparison table missing round/never rendering:\n%s", s)
	}
}
