package sweep

import (
	"bytes"
	"strings"
	"testing"
)

// TestWriteIdentityBatteryBytes pins the tagged append-only encoding of
// the battery axis: a tagged segment after the population tags, absent
// entirely at the axis default so every pre-battery seed and cache
// digest survives.
func TestWriteIdentityBatteryBytes(t *testing.T) {
	var b strings.Builder
	Cell{
		Workload: "w", Setting: "s", Data: "d", Env: "e", Policy: "p",
		Replicate: 0, Battery: "charger",
	}.WriteIdentity(&b)
	want := "1:w|1:s|1:d|1:e|1:p|#0|battery=7:charger"
	if b.String() != want {
		t.Errorf("battery identity = %q, want %q", b.String(), want)
	}

	// The battery axis at its default contributes no bytes, even when
	// the earlier extension axes are in play.
	var ext, extBatt strings.Builder
	base := Cell{
		Workload: "w", Setting: "s", Data: "d", Env: "e", Policy: "p",
		Mode: "async", Alpha: "0.5",
	}
	base.WriteIdentity(&ext)
	withDefaults := base
	withDefaults.Battery = ""
	withDefaults.WriteIdentity(&extBatt)
	if ext.String() != extBatt.String() {
		t.Errorf("default battery axes changed the identity: %q vs %q", ext.String(), extBatt.String())
	}

	// And after the population tags when both groups are set.
	var full strings.Builder
	full2 := base
	full2.Sample = "64"
	full2.Devices = "1000"
	full2.Battery = "none"
	full2.WriteIdentity(&full)
	want = "1:w|1:s|1:d|1:e|1:p|#0|mode=5:async|alpha=3:0.5|devices=4:1000|sample=2:64|battery=4:none"
	if full.String() != want {
		t.Errorf("combined identity = %q, want %q", full.String(), want)
	}
}

// TestCellSeedInjectiveAcrossBatteryAxes: battery values must not
// collide with each other, with their absence, or with the earlier
// extension tags.
func TestCellSeedInjectiveAcrossBatteryAxes(t *testing.T) {
	g := Grid{Seed: 7}
	cells := []Cell{
		{Policy: "p"},
		{Policy: "p", Battery: "none"},
		{Policy: "p", Battery: "charger"},
		{Policy: "Battery-Weighted", Battery: "none"},
		{Policy: "p", Mode: "async", Battery: "none"},
		{Policy: "p", Sample: "64", Battery: "none"},
		// Crafted values embedding the tag syntax stay distinct thanks to
		// the length prefixes.
		{Policy: "p|battery=4:none"},
		{Policy: "p", Sample: "64|battery=4:none"},
	}
	seen := map[uint64]string{}
	for _, c := range cells {
		s := g.CellSeed(c)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %q and %q", prev, c.Key())
		}
		seen[s] = c.Key()
	}
}

// TestGridBatteryExpansion: the battery axis multiplies into Size and
// expands innermost of the value axes (inside the policy axis that
// carries the battery-aware baselines, outside only the replicate
// index).
func TestGridBatteryExpansion(t *testing.T) {
	g := Grid{
		Workloads: []string{"w"}, Settings: []string{"s"},
		Data: []string{"d"}, Envs: []string{"e"},
		Policies:   []string{"FedAvg-Random", "Battery-Weighted"},
		Batteries:  []string{"none", "charger"},
		Replicates: 3,
		Seed:       1,
	}
	want := 2 * 2 * 3
	if g.Size() != want {
		t.Fatalf("Size = %d, want %d", g.Size(), want)
	}
	cells := g.Cells()
	if len(cells) != want {
		t.Fatalf("len(Cells) = %d, want %d", len(cells), want)
	}
	if cells[0].Replicate != 0 || cells[1].Replicate != 1 {
		t.Errorf("replicates not innermost: %+v %+v", cells[0], cells[1])
	}
	if cells[0].Battery != "none" || cells[3].Battery != "charger" {
		t.Errorf("battery not second-innermost: %+v %+v", cells[0], cells[3])
	}
	if cells[0].Policy != "FedAvg-Random" || cells[6].Policy != "Battery-Weighted" {
		t.Errorf("policy not outside battery: %+v %+v", cells[0], cells[6])
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Key()] {
			t.Fatalf("duplicate cell key %q", c.Key())
		}
		seen[c.Key()] = true
	}
}

// TestCellOrderingBatteryAxes: the battery axis orders after the
// policy and population axes and before the replicate index.
func TestCellOrderingBatteryAxes(t *testing.T) {
	a := Cell{Policy: "p", Battery: "charger", Replicate: 5}
	b := Cell{Policy: "p", Battery: "none", Replicate: 0}
	if !a.less(b) || b.less(a) {
		t.Error("battery must order before replicate")
	}
	c := Cell{Policy: "Battery-Weighted", Battery: "none"}
	d := Cell{Policy: "FedAvg-Random", Battery: "charger"}
	if !c.less(d) || d.less(c) {
		t.Error("policy must order before battery")
	}
	e := Cell{Policy: "p", Sample: "64", Battery: "z"}
	f := Cell{Policy: "p", Sample: "65", Battery: "a"}
	if !e.less(f) || f.less(e) {
		t.Error("population axes must order before battery axes")
	}
}

// TestSameGroupSeparatesBatteryAxes: replicate groups never mix battery
// configurations or battery-aware baselines.
func TestSameGroupSeparatesBatteryAxes(t *testing.T) {
	base := Cell{Workload: "w", Policy: "p", Replicate: 0}
	for _, mut := range []func(*Cell){
		func(c *Cell) { c.Battery = "none" },
		func(c *Cell) { c.Policy = "Battery-Weighted" },
	} {
		other := base
		mut(&other)
		if sameGroup(base, other) {
			t.Errorf("battery axis did not separate groups: %+v vs %+v", base, other)
		}
	}
}

// TestWriteCSVBatteryColumnsGated pins the two-tier CSV contract: the
// battery column group appears only when some summary sits on a battery
// axis, so pre-battery sweeps — including extended mode-axis sweeps —
// keep their exact CSV bytes.
func TestWriteCSVBatteryColumnsGated(t *testing.T) {
	outcome := Outcome{Rounds: 1, FinalAccuracy: 0.5}
	baseCell := Cell{Workload: "w", Setting: "s", Data: "d", Env: "e", Policy: "p"}

	write := func(cells ...Cell) string {
		st := NewStore()
		for _, c := range cells {
			st.Add(Result{Cell: c, Outcome: outcome})
		}
		var buf bytes.Buffer
		if err := st.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	legacy := write(baseCell)
	if strings.Contains(legacy, "battery") || strings.Contains(legacy, "mode") {
		t.Errorf("legacy CSV grew extension columns: %q", legacy)
	}

	modeCell := baseCell
	modeCell.Mode = "async"
	extended := write(modeCell)
	if !strings.Contains(extended, "mean_staleness_mean") {
		t.Errorf("mode-axis CSV missing staleness columns: %q", extended)
	}
	if strings.Contains(extended, "battery") {
		t.Errorf("mode-axis CSV grew battery columns: %q", extended)
	}

	battCell := baseCell
	battCell.Battery = "charger"
	battOut := outcome
	battOut.ParticipationJain = 0.9
	st := NewStore()
	st.Add(Result{Cell: battCell, Outcome: battOut})
	var buf bytes.Buffer
	if err := st.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, col := range []string{"battery", "participation_jain_mean", "battery_mean_frac_stddev"} {
		if !strings.Contains(got, col) {
			t.Errorf("battery CSV missing %q: %q", col, got)
		}
	}
	if strings.Contains(got, "selection") {
		t.Errorf("battery CSV carries the retired selection column: %q", got)
	}
	// The battery group rides with, not instead of, the mode group when
	// both are present.
	both := write(modeCell, battCell)
	header := strings.SplitN(both, "\n", 2)[0]
	if !strings.Contains(header, "mean_staleness_mean") || !strings.Contains(header, "participation_jain_mean") {
		t.Errorf("combined CSV header missing a group: %q", header)
	}
}

// TestSummaryBatteryStatsGated: the battery Stats pointers are emitted
// only for groups on an explicit battery preset, so legacy summaries
// marshal byte-identically.
func TestSummaryBatteryStatsGated(t *testing.T) {
	st := NewStore()
	plain := Cell{Workload: "w", Setting: "s", Data: "d", Env: "e", Policy: "p"}
	batt := plain
	batt.Battery = "none"
	st.Add(
		Result{Cell: plain, Outcome: Outcome{Rounds: 1}},
		Result{Cell: batt, Outcome: Outcome{Rounds: 1, ParticipationJain: 0.8, BatteryMeanFrac: 0.4}},
	)
	sums := st.Summaries()
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	for _, s := range sums {
		if s.Battery == "" {
			if s.ParticipationJain != nil || s.BatteryMeanFrac != nil {
				t.Errorf("batteryless summary carries battery stats: %+v", s)
			}
			continue
		}
		if s.ParticipationJain == nil || s.ParticipationJain.Mean != 0.8 {
			t.Errorf("battery summary jain = %+v, want mean 0.8", s.ParticipationJain)
		}
		if s.BatteryMeanFrac == nil || s.BatteryMeanFrac.Mean != 0.4 {
			t.Errorf("battery summary mean frac = %+v, want mean 0.4", s.BatteryMeanFrac)
		}
	}
}
