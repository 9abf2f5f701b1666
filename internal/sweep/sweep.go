// Package sweep is the experiment-orchestration engine of the AutoFL
// reproduction: it expands a declarative Grid of scenario axes
// (workloads × settings × data scenarios × environments × policies ×
// seed replicates) into cells and executes them through a pluggable
// Executor, with per-cell deterministic seeding, panic isolation,
// context cancellation, and progress reporting.
//
// The engine is deliberately independent of how a cell is executed,
// along two axes. A Runner maps one Cell (plus its derived seed) to an
// Outcome, so the same machinery drives full paper-scale evaluations
// (cmd/autofl-sweep via the root package's SweepRunner), the
// per-figure sweeps of internal/experiments, and reduced-scale
// benchmarks. An Executor decides where and how the expanded tasks
// run: the default LocalExecutor is an in-process goroutine pool, and
// internal/sweep/dist farms the same tasks to worker processes over
// TCP.
//
// Determinism is the design center. Every cell's seed is a pure
// function of the grid seed and the cell's key, so a run parallelized
// across GOMAXPROCS workers — or scattered across remote machines —
// produces byte-identical sorted output to a -parallel=1 run of the
// same grid.
package sweep

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"

	"autofl/internal/rng"
)

// axis is one dimension of a Grid. Its name is its JSON key on Cell
// and Summary, its CSV column, and — for an extension axis — the tag of
// its identity segment. tier groups the extension axes into the CSV's
// gated column groups: 0 for the base axes, 1 for aggregation and
// population, 2 for battery.
type axis struct {
	name string
	tier int
}

// axes is the one ordered list of grid axes, in expansion order
// (slowest first), sort order and identity order: the five base axes,
// then the tagged extension axes. An extension axis at its default
// (empty) value contributes no identity bytes, so every cell
// expressible before an axis existed keeps its seed and cache digest.
// New axes append; tags never move, never prefix one another, and a
// retired tag ("selection") is never reused.
var axes = [...]axis{
	{"workload", 0}, {"setting", 0}, {"data", 0}, {"env", 0}, {"policy", 0},
	{"mode", 1}, {"alpha", 1}, {"devices", 1}, {"sample", 1},
	{"battery", 2},
}

// baseAxes counts the untagged base axes at the head of axes.
const baseAxes = 5

// Cell is one point of an expanded Grid: a concrete scenario plus a
// replicate index. Axis values are the public string names of the root
// autofl package (empty string selects that axis's default scenario
// value); Policy also takes the battery-aware baselines
// (Battery-Weighted, All-Available).
type Cell struct {
	Workload string `json:"workload"`
	Setting  string `json:"setting"`
	Data     string `json:"data"`
	Env      string `json:"env"`
	Policy   string `json:"policy"`
	// Mode and Alpha select the aggregation regime ("sync", "async",
	// "semi-async") and the staleness-weighting exponent. Devices and
	// Sample scale the scenario to a synthetic population fleet of that
	// many devices with per-round cohorts of Sample. Battery names a
	// harvesting preset ("none", "charger", "solar-diurnal") that
	// attaches the battery model. All five are extension axes: empty
	// means the scenario default (synchronous aggregation, explicit
	// fleet, no battery).
	Mode      string `json:"mode,omitempty"`
	Alpha     string `json:"alpha,omitempty"`
	Devices   string `json:"devices,omitempty"`
	Sample    string `json:"sample,omitempty"`
	Battery   string `json:"battery,omitempty"`
	Replicate int    `json:"replicate"`
}

// axisValues returns the cell's axis fields in axes order.
func (c *Cell) axisValues() [len(axes)]*string {
	return [...]*string{
		&c.Workload, &c.Setting, &c.Data, &c.Env, &c.Policy,
		&c.Mode, &c.Alpha, &c.Devices, &c.Sample, &c.Battery,
	}
}

// Key renders the cell for display and logs. Seed derivation uses the
// injective field encoding of CellSeed instead, so axis values that
// happen to contain the separators cannot collide.
func (c Cell) Key() string {
	v := c.axisValues()
	var b strings.Builder
	for i, p := range v[:baseAxes] {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(*p)
	}
	fmt.Fprintf(&b, "#%d", c.Replicate)
	for i, p := range v[baseAxes:] {
		if *p != "" {
			b.WriteString("/" + axes[baseAxes+i].name + "=" + *p)
		}
	}
	return b.String()
}

// WriteIdentity writes the cell's injective identity encoding: each
// base axis value length-prefixed, then the replicate index, then a
// tagged length-prefixed segment per non-empty extension axis. No two
// distinct cells produce the same bytes whatever characters their
// axis values contain. It is the single source of truth for every
// cell-identity hash — CellSeed here and the cache's CellDigest.
// Injectivity holds because the tags are distinct, ordered, and never
// a prefix of one another, and each value is length-prefixed.
func (c Cell) WriteIdentity(w io.Writer) {
	v := c.axisValues()
	for _, p := range v[:baseAxes] {
		fmt.Fprintf(w, "%d:%s|", len(*p), *p)
	}
	fmt.Fprintf(w, "#%d", c.Replicate)
	for i, p := range v[baseAxes:] {
		if *p != "" {
			fmt.Fprintf(w, "|%s=%d:%s", axes[baseAxes+i].name, len(*p), *p)
		}
	}
}

// compareAxes orders two cells by their axis values alone, in axes
// order.
func compareAxes(a, b Cell) int {
	va, vb := a.axisValues(), b.axisValues()
	for i := range va {
		if d := strings.Compare(*va[i], *vb[i]); d != 0 {
			return d
		}
	}
	return 0
}

// sameGroup reports whether two cells are replicates of the same
// scenario. Summaries aggregate over it.
func sameGroup(a, b Cell) bool { return compareAxes(a, b) == 0 }

// less orders cells by axis values with the replicate compared
// numerically, so sorted output is stable for any replicate count.
func (c Cell) less(o Cell) bool {
	if d := compareAxes(c, o); d != 0 {
		return d < 0
	}
	return c.Replicate < o.Replicate
}

// Grid declares an experiment sweep: the cross product of the axis
// value sets, replicated Replicates times. An empty axis contributes a
// single empty value, which Runners interpret as that axis's default.
type Grid struct {
	Workloads []string `json:"workloads,omitempty"`
	Settings  []string `json:"settings,omitempty"`
	Data      []string `json:"data,omitempty"`
	Envs      []string `json:"envs,omitempty"`
	// Policies spans the paper's policies and the battery-aware
	// baselines alike.
	Policies []string `json:"policies,omitempty"`
	// Modes and Alphas span aggregation regimes and staleness
	// exponents; Devices and Samples span population sizes and
	// per-round cohort sizes; Batteries spans battery presets. Empty
	// axes contribute the single default value and leave cell
	// identities unchanged.
	Modes      []string `json:"modes,omitempty"`
	Alphas     []string `json:"alphas,omitempty"`
	Devices    []string `json:"devices,omitempty"`
	Samples    []string `json:"samples,omitempty"`
	Batteries  []string `json:"batteries,omitempty"`
	Replicates int      `json:"replicates,omitempty"`
	// Seed is the grid master seed every cell seed derives from.
	Seed uint64 `json:"seed"`
}

// axisSets returns the grid's axis value sets in axes order, an empty
// set replaced by the single default value.
func (g Grid) axisSets() [len(axes)][]string {
	sets := [...][]string{
		g.Workloads, g.Settings, g.Data, g.Envs, g.Policies,
		g.Modes, g.Alphas, g.Devices, g.Samples, g.Batteries,
	}
	for i, vals := range sets {
		if len(vals) == 0 {
			sets[i] = []string{""}
		}
	}
	return sets
}

// replicates returns the effective replicate count (at least 1).
func (g Grid) replicates() int {
	if g.Replicates < 1 {
		return 1
	}
	return g.Replicates
}

// Validate reports an axis that lists a value twice. Such a grid
// expands to repeated cells — one identity, one seed — that would read
// as extra replicates of a single run.
func (g Grid) Validate() error {
	for i, vals := range g.axisSets() {
		seen := make(map[string]bool, len(vals))
		for _, v := range vals {
			if seen[v] {
				return fmt.Errorf("sweep: %s %q listed twice", axes[i].name, v)
			}
			seen[v] = true
		}
	}
	return nil
}

// Size is the number of cells the grid expands to. It saturates at
// math.MaxInt instead of wrapping, so a hostile grid reads as too big,
// never as small.
func (g Grid) Size() int {
	n := g.replicates()
	for _, vals := range g.axisSets() {
		if n > math.MaxInt/len(vals) {
			return math.MaxInt
		}
		n *= len(vals)
	}
	return n
}

// Cells expands the grid in deterministic order: the axes in axes
// order, the slowest first, then the replicates.
func (g Grid) Cells() []Cell {
	sets := g.axisSets()
	out := make([]Cell, 0, g.Size())
	var digit [len(axes)]int // the odometer: one index per axis
	for {
		var c Cell
		for i, p := range c.axisValues() {
			*p = sets[i][digit[i]]
		}
		for c.Replicate = 0; c.Replicate < g.replicates(); c.Replicate++ {
			out = append(out, c)
		}
		i := len(digit) - 1
		for ; i >= 0; i-- {
			if digit[i]++; digit[i] < len(sets[i]) {
				break
			}
			digit[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// CellSeed derives the cell's seed from the grid seed and the cell's
// identity: the WriteIdentity encoding hashed with FNV-1a — injective,
// so no two distinct cells share a seed whatever characters their axis
// values contain — and mixed with the grid seed through an rng.Stream
// draw, decorrelating the seeds of adjacent cells independently of
// expansion order or worker scheduling.
func (g Grid) CellSeed(c Cell) uint64 {
	h := fnv.New64a()
	c.WriteIdentity(h)
	return rng.New(g.Seed ^ h.Sum64()).Uint64()
}
