package sweep

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// referenceCells is the hand-written nested-loop expansion the axis
// table replaced, kept as the reference Cells must reproduce: one loop
// per axis, slowest first, replicates innermost.
func referenceCells(g Grid) []Cell {
	or := func(vals []string) []string {
		if len(vals) == 0 {
			return []string{""}
		}
		return vals
	}
	var out []Cell
	for _, w := range or(g.Workloads) {
		for _, s := range or(g.Settings) {
			for _, d := range or(g.Data) {
				for _, e := range or(g.Envs) {
					for _, p := range or(g.Policies) {
						for _, m := range or(g.Modes) {
							for _, a := range or(g.Alphas) {
								for _, dv := range or(g.Devices) {
									for _, sm := range or(g.Samples) {
										for _, bt := range or(g.Batteries) {
											for r := 0; r < g.replicates(); r++ {
												out = append(out, Cell{
													Workload: w, Setting: s, Data: d,
													Env: e, Policy: p,
													Mode: m, Alpha: a,
													Devices: dv, Sample: sm,
													Battery:   bt,
													Replicate: r,
												})
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// fullGrid puts two values, listed in ascending order, on every axis,
// and two replicates.
func fullGrid() Grid {
	return Grid{
		Workloads: []string{"w0", "w1"}, Settings: []string{"S1", "S3"},
		Data: []string{"iid", "noniid50"}, Envs: []string{"field", "ideal"},
		Policies: []string{"Battery-Weighted", "FedAvg-Random"},
		Modes:    []string{"async", "sync"}, Alphas: []string{"0.5", "1"},
		Devices: []string{"1000", "200"}, Samples: []string{"64", "8"},
		Batteries:  []string{"charger", "none"},
		Replicates: 2,
		Seed:       3,
	}
}

// TestCellsMatchReference pins the odometer expansion against the
// nested loops on a grid with two values on every axis, and checks
// that sorting a shuffled copy with less gives back expansion order
// and that sameGroup groups exactly the replicates.
func TestCellsMatchReference(t *testing.T) {
	g := fullGrid()
	want := referenceCells(g)
	if n := 2 << len(axes); len(want) != n || g.Size() != n {
		t.Fatalf("reference has %d cells, Size %d, want %d", len(want), g.Size(), n)
	}
	got := g.Cells()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Cells differs from the nested-loop reference")
	}

	shuffled := append([]Cell(nil), want...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	st := NewStore()
	for _, c := range shuffled { // Results sorts with less
		st.Add(Result{Cell: c})
	}
	for i, r := range st.Results() {
		if r.Cell != want[i] {
			t.Fatalf("sorted cell %d = %+v, want %+v", i, r.Cell, want[i])
		}
	}

	// Replicates share a group; a change on any one axis splits it.
	for _, a := range want {
		rep := a
		rep.Replicate = 1 - a.Replicate
		if !sameGroup(a, rep) {
			t.Fatalf("replicates of %s split", a.Key())
		}
		for k := range axes {
			b := a
			*b.axisValues()[k] += "x"
			if sameGroup(a, b) {
				t.Fatalf("sameGroup(%s, %s) joined cells apart on %s", a.Key(), b.Key(), axes[k].name)
			}
		}
	}
}

// TestGridSizeSaturates: a product past math.MaxInt reads as
// math.MaxInt, not as a wrapped small or negative count.
func TestGridSizeSaturates(t *testing.T) {
	hundred := make([]string, 100)
	g := Grid{
		Workloads: hundred, Settings: hundred, Data: hundred, Envs: hundred,
		Policies: hundred, Modes: hundred, Alphas: hundred, Devices: hundred,
		Samples: hundred, Batteries: hundred,
	}
	if got := g.Size(); got != math.MaxInt {
		t.Errorf("Size of 100^10 cells = %d, want math.MaxInt", got)
	}
	g = Grid{Replicates: math.MaxInt, Policies: []string{"a", "b"}}
	if got := g.Size(); got != math.MaxInt {
		t.Errorf("Size of 2 x MaxInt replicates = %d, want math.MaxInt", got)
	}
	g = Grid{Replicates: math.MaxInt}
	if got := g.Size(); got != math.MaxInt {
		t.Errorf("Size of MaxInt replicates = %d, want math.MaxInt", got)
	}
}
