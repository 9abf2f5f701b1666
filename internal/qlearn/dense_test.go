package qlearn

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"autofl/internal/rng"
)

// q reads (s, a) from a visited row.
func q(d *Dense, s StateKey, a int) float64 {
	row, ok := d.index[s]
	if !ok {
		panic(fmt.Sprintf("state %d not visited", s))
	}
	return d.values[int(row)*d.numActions+a]
}

// set overwrites (s, a), materializing the row first.
func set(d *Dense, s StateKey, a int, v float64) {
	d.values[int(d.Touch(s))*d.numActions+a] = v
}

// TestDenseMatchesTable pins the dense table to the string-keyed
// reference draw for draw, driven through the controller's own update
// sequence (Touch S′, BestAt, Touch S, UpdateAt) under a value prior
// that moves between row creations: identically seeded instances must
// produce identical init values, argmax decisions, and update
// trajectories.
func TestDenseMatchesTable(t *testing.T) {
	acts := testActions()
	prior := 0.0
	legacy := NewTable(acts, rng.New(42))
	dense := NewDense(len(acts), rng.New(42))
	legacy.Init = func() float64 { return prior }
	dense.Init = legacy.Init

	states := make([]State, 8)
	for i := range states {
		states[i] = JoinState("c1", "f0", fmt.Sprintf("u%d", i))
	}
	drive := rng.New(43)
	for step := 0; step < 400; step++ {
		s, sn := drive.IntN(len(states)), drive.IntN(len(states))
		a := drive.IntN(len(acts))
		reward := 4*drive.Float64() - 2
		prior = drive.Float64() - 0.5

		legacy.Touch(states[sn])
		rowNext := dense.Touch(StateKey(sn))
		la, lv := legacy.Best(states[sn])
		aNext, dv := dense.BestAt(rowNext)
		if la != acts[aNext] || lv != dv {
			t.Fatalf("step %d: argmax of %s = (%s, %v) vs dense (%s, %v)", step, states[sn], la, lv, acts[aNext], dv)
		}
		legacy.Touch(states[s])
		row := dense.Touch(StateKey(s))
		legacy.Update(states[s], acts[a], reward, states[sn], la, 0.9, 0.1)
		dense.UpdateAt(row, a, reward, rowNext, aNext, 0.9, 0.1)
	}
	if len(legacy.q) != len(states) || len(dense.index) != len(states) {
		t.Fatalf("visited %d legacy / %d dense states, want %d", len(legacy.q), len(dense.index), len(states))
	}
	for i, st := range states {
		for ai, a := range acts {
			if lv, dv := legacy.Q(st, a), q(dense, StateKey(i), ai); lv != dv {
				t.Fatalf("value mismatch at (%s,%s): %v vs %v", st, a, lv, dv)
			}
		}
	}
}

// TestDenseReadsAreSideEffectFree: only the first Touch of a state
// draws from the init stream; BestAt and repeat Touches are reads, so
// interleaving them leaves every later row's init values unchanged.
func TestDenseReadsAreSideEffectFree(t *testing.T) {
	a := NewDense(3, rng.New(5))
	b := NewDense(3, rng.New(5))
	for i := 0; i < 100; i++ {
		ra := a.Touch(StateKey(i))
		b.Touch(StateKey(i))
		for j := 0; j < 5; j++ {
			_, _ = a.BestAt(ra)
			if a.Touch(StateKey(i)) != ra {
				t.Fatal("repeat Touch returned a different row")
			}
		}
	}
	if len(a.index) != len(b.index) || !slices.Equal(a.values, b.values) {
		t.Fatal("reads changed the table or advanced the init stream")
	}
}

func TestDenseBestTieBreaksToLowestIndex(t *testing.T) {
	d := NewDense(3, rng.New(7))
	set(d, 1, 0, 2)
	set(d, 1, 1, 2)
	set(d, 1, 2, 2)
	if a, _ := d.BestAt(d.Touch(1)); a != 0 {
		t.Errorf("tie broke to %d, want lowest index 0", a)
	}
	set(d, 2, 0, 1)
	set(d, 2, 1, 5)
	set(d, 2, 2, 5)
	if a, v := d.BestAt(d.Touch(2)); a != 1 || v != 5 {
		t.Errorf("BestAt = (%d, %v), want (1, 5)", a, v)
	}
}

func TestDenseSteadyStateOpsAllocFree(t *testing.T) {
	d := NewDense(6, rng.New(8))
	for s := 0; s < 64; s++ {
		d.Touch(StateKey(s))
	}
	ops := func() {
		rowNext := d.Touch(17)
		aNext, _ := d.BestAt(rowNext)
		row := d.Touch(23)
		d.UpdateAt(row, 1, 0.7, rowNext, aNext, 0.9, 0.1)
	}
	if avg := testing.AllocsPerRun(200, ops); avg != 0 {
		t.Errorf("steady-state dense ops allocated %.2f/run, want 0", avg)
	}
}

// TestDenseMemoryBytesAgainstMeasuredBaseline keeps the §6.4 footprint
// accounting honest: MemoryBytes must track the actually measured heap
// growth of a populated table within a factor of two in both
// directions.
func TestDenseMemoryBytesAgainstMeasuredBaseline(t *testing.T) {
	const states, acts = 4096, 6
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDense(acts, rng.New(9))
	for s := 0; s < states; s++ {
		d.Touch(StateKey(s))
	}
	// Collect the append-growth garbage so only live structures count.
	runtime.GC()
	runtime.ReadMemStats(&after)
	measured := int(after.HeapAlloc - before.HeapAlloc)

	got := d.MemoryBytes()
	if got < measured/2 || got > measured*2 {
		t.Errorf("MemoryBytes = %d, measured heap growth = %d; accounting drifted beyond 2x", got, measured)
	}
	// And the dense form must undercut the string-keyed map accounting
	// for the same content — the point of the representation change.
	legacy := NewTable(testActions(), rng.New(9))
	for s := 0; s < states; s++ {
		legacy.Touch(State(rune('a'+s%26)) + State(rune('a'+(s/26)%26)) + State(rune('a'+s/676)))
	}
	if got >= legacy.MemoryBytes() {
		t.Errorf("dense MemoryBytes %d not below legacy %d", got, legacy.MemoryBytes())
	}
}

func TestNewDensePanicsWithoutActions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDense with no actions should panic")
		}
	}()
	NewDense(0, rng.New(1))
}

func TestDenseUpdateAtMatchesUpdate(t *testing.T) {
	acts := []Action{"a0", "a1", "a2"}
	a := NewTable(acts, rng.New(55))
	b := NewDense(3, rng.New(55))
	a.Touch("1")
	a.Touch("2")
	rb1, rb2 := b.Touch(1), b.Touch(2)
	a.Update("1", "a2", 0.8, "2", "a0", 0.9, 0.1)
	b.UpdateAt(rb1, 2, 0.8, rb2, 0, 0.9, 0.1)
	for s := StateKey(1); s <= 2; s++ {
		for act := 0; act < 3; act++ {
			if a.Q(State(fmt.Sprint(s)), acts[act]) != q(b, s, act) {
				t.Fatalf("UpdateAt diverged from Update at (%d,%d)", s, act)
			}
		}
	}
}
