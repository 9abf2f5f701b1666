package qlearn

import (
	"fmt"
	"sort"
	"strings"

	"autofl/internal/rng"
)

// This file keeps the string-keyed Q-table that Dense replaced on the
// controller's hot path. It is the reference TestDenseMatchesTable
// checks Dense against draw for draw: same init stream, same argmax,
// same update trajectory.

// State is a string state key, built with JoinState.
type State string

// Action is a string action key, built with FormatAction.
type Action string

// JoinState builds a composite state key from parts.
func JoinState(parts ...string) State { return State(strings.Join(parts, "|")) }

// FormatAction builds an action key from a target name and a discrete
// level.
func FormatAction(target string, level int) Action {
	return Action(fmt.Sprintf("%s@%d", target, level))
}

// Table is one Q-table keyed by (state, action). Rows are created
// lazily by Touch and Update, each drawing one init value per action in
// the caller's action order.
type Table struct {
	q       map[State]map[Action]float64
	actions []Action // caller-supplied order (the action index space)
	ordered []Action // sorted by name, for deterministic argmax
	initRng *rng.Stream

	// Init supplies the base value for lazily-created rows, as on
	// Dense.
	Init func() float64
}

// NewTable creates a Q-table over a fixed action set.
func NewTable(actions []Action, s *rng.Stream) *Table {
	ordered := append([]Action(nil), actions...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	return &Table{
		q:       make(map[State]map[Action]float64),
		actions: actions,
		ordered: ordered,
		initRng: s,
	}
}

// base returns the prior value for entries of not-yet-created rows.
func (t *Table) base() float64 {
	if t.Init != nil {
		return t.Init()
	}
	return 0
}

// Touch materializes the row for s and returns it.
func (t *Table) Touch(s State) map[Action]float64 {
	r, ok := t.q[s]
	if !ok {
		base := t.base()
		r = make(map[Action]float64, len(t.actions))
		for _, a := range t.actions {
			r[a] = base + t.initRng.Float64()*1e-3
		}
		t.q[s] = r
	}
	return r
}

// Q returns the value of (s, a); s must have been touched.
func (t *Table) Q(s State, a Action) float64 { return t.q[s][a] }

// Best returns the highest-valued action of a touched state, breaking
// ties by action name.
func (t *Table) Best(s State) (Action, float64) {
	r := t.q[s]
	best := t.ordered[0]
	for _, a := range t.ordered[1:] {
		if r[a] > r[best] {
			best = a
		}
	}
	return best, r[best]
}

// Update applies the Algorithm 1 value update for the transition
// (s, a) → (sNext, aNext); sNext must have been touched.
func (t *Table) Update(s State, a Action, reward float64, sNext State, aNext Action, learningRate, discount float64) {
	r := t.Touch(s)
	cur := r[a]
	target := reward + discount*t.Q(sNext, aNext)
	r[a] = cur + learningRate*(target-cur)
}

// MemoryBytes estimates the table's resident size: ~48 bytes per map
// entry including keys, ~64 bytes per state row.
func (t *Table) MemoryBytes() int {
	entries := 0
	for _, r := range t.q {
		entries += len(r)
	}
	return entries*48 + len(t.q)*64
}

// testActions returns the controller's six actions, CPU then GPU at
// DVFS levels 0..2. Name order equals index order, so Table's
// name-ordered ties and Dense's lowest-index ties agree.
func testActions() []Action {
	var out []Action
	for _, target := range []string{"CPU", "GPU"} {
		for lvl := 0; lvl < 3; lvl++ {
			out = append(out, FormatAction(target, lvl))
		}
	}
	return out
}
