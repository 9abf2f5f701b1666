package qlearn

import (
	"testing"

	"autofl/internal/rng"
)

func TestInitPriorSeedsFreshRows(t *testing.T) {
	d := NewDense(2, rng.New(1))
	prior := 5.0
	d.Init = func() float64 { return prior }
	d.Touch(1)
	v := q(d, 1, 0)
	if v < 5 || v >= 5.001 {
		t.Errorf("fresh row value = %v, want prior 5 plus tiny jitter", v)
	}
	// Changing the prior affects only rows created afterwards.
	prior = -3
	d.Touch(1)
	if got := q(d, 1, 0); got != v {
		t.Error("existing rows must not move when the prior changes")
	}
	d.Touch(2)
	v2 := q(d, 2, 1)
	if v2 > -2.99 || v2 < -3 {
		t.Errorf("second fresh row = %v, want prior -3 plus jitter", v2)
	}
}

func TestInitPriorPreservesOrdering(t *testing.T) {
	// Two tables with different priors: their freshly touched states
	// must rank in prior order — the mechanism AutoFL uses to
	// generalize device-constant knowledge across runtime-variance
	// states.
	s := rng.New(2)
	good := NewDense(1, s.Fork())
	bad := NewDense(1, s.Fork())
	good.Init = func() float64 { return 1.0 }
	bad.Init = func() float64 { return 0.1 }
	for state := StateKey(1); state <= 3; state++ {
		_, gv := good.BestAt(good.Touch(state))
		_, bv := bad.BestAt(bad.Touch(state))
		if gv <= bv {
			t.Errorf("state %d: good prior %v not above bad prior %v", state, gv, bv)
		}
	}
}

func TestNoInitDefaultsToSmallRandom(t *testing.T) {
	d := NewDense(1, rng.New(3))
	if _, v := d.BestAt(d.Touch(1)); v <= 0 || v >= 1e-3 {
		t.Errorf("default init = %v, want (0, 1e-3)", v)
	}
}
