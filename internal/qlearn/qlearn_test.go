package qlearn

import (
	"math"
	"testing"
	"testing/quick"

	"autofl/internal/rng"
)

// epsilonGreedy picks an action for a touched row the way the AutoFL
// controller does: with probability eps a uniform index drawn from
// explore, otherwise the row's argmax.
func epsilonGreedy(d *Dense, row int32, explore *rng.Stream, eps float64) int {
	if explore.Bool(eps) {
		return explore.IntN(d.numActions)
	}
	a, _ := d.BestAt(row)
	return a
}

// playBandit runs rounds of a single-state bandit with the given
// payouts on d, learning with the paper's hyperparameters.
func playBandit(d *Dense, explore *rng.Stream, payout []float64, rounds int) {
	row := d.Touch(0)
	for i := 0; i < rounds; i++ {
		a := epsilonGreedy(d, row, explore, DefaultEpsilon)
		greedy, _ := d.BestAt(row)
		d.UpdateAt(row, a, payout[a], row, greedy, DefaultLearningRate, DefaultDiscount)
	}
}

func TestLazyInitSmallRandom(t *testing.T) {
	d := NewDense(3, rng.New(1))
	row := d.Touch(0)
	v := q(d, 0, 0)
	if v <= 0 || v >= 1e-3 {
		t.Errorf("initial Q = %v, want small random in (0, 1e-3)", v)
	}
	if d.Touch(0) != row || q(d, 0, 0) != v {
		t.Error("repeated touches must return the same initialized row")
	}
}

func TestBestPrefersHighest(t *testing.T) {
	d := NewDense(3, rng.New(2))
	set(d, 1, 0, 1)
	set(d, 1, 1, 5)
	set(d, 1, 2, 3)
	if a, v := d.BestAt(d.Touch(1)); a != 1 || v != 5 {
		t.Errorf("BestAt = (%d, %v), want (1, 5)", a, v)
	}
}

func TestBestTieBreaksDeterministically(t *testing.T) {
	d := NewDense(3, rng.New(3))
	set(d, 1, 0, 2)
	set(d, 1, 1, 2)
	set(d, 1, 2, 2)
	row := d.Touch(1)
	a1, _ := d.BestAt(row)
	a2, _ := d.BestAt(row)
	if a1 != a2 {
		t.Error("tie-breaking must be deterministic")
	}
	if a1 != 0 {
		t.Errorf("tie should break to the first action, got %d", a1)
	}
}

func TestUpdateMovesTowardTarget(t *testing.T) {
	d := NewDense(3, rng.New(4))
	set(d, 1, 0, 0)
	set(d, 2, 1, 10)
	d.UpdateAt(d.Touch(1), 0, 5, d.Touch(2), 1, 0.5, 0.1)
	// target = 5 + 0.1*10 = 6; new Q = 0 + 0.5*(6-0) = 3.
	if got := q(d, 1, 0); math.Abs(got-3) > 1e-12 {
		t.Errorf("Q after update = %v, want 3", got)
	}
}

func TestUpdateConvergesToConstantReward(t *testing.T) {
	d := NewDense(3, rng.New(5))
	// Repeatedly receiving reward 4 in an absorbing state with
	// discount 0 should drive Q to 4.
	row := d.Touch(1)
	for i := 0; i < 200; i++ {
		d.UpdateAt(row, 0, 4, row, 0, 0.9, 0)
	}
	if got := q(d, 1, 0); math.Abs(got-4) > 1e-6 {
		t.Errorf("Q = %v, want 4", got)
	}
}

func TestAgentLearnsBandit(t *testing.T) {
	// Three-armed bandit: arm 2 pays 10, the others pay 1. An
	// epsilon-greedy learner must identify the best arm.
	s := rng.New(6)
	d, explore := NewDense(3, s.Fork()), s.Fork()
	playBandit(d, explore, []float64{1, 1, 10}, 500)
	if got, _ := d.BestAt(d.Touch(0)); got != 2 {
		t.Errorf("greedy action after training = %d, want 2", got)
	}
}

func TestAgentAdaptsToChange(t *testing.T) {
	// The high learning rate the paper selects (γ = 0.9) exists to
	// adapt quickly when the environment shifts; verify the learner
	// re-learns after the best arm changes.
	s := rng.New(7)
	d, explore := NewDense(3, s.Fork()), s.Fork()
	playBandit(d, explore, []float64{10, 1, 1}, 300)
	if got, _ := d.BestAt(d.Touch(0)); got != 0 {
		t.Fatalf("phase 1 best = %d, want 0", got)
	}
	playBandit(d, explore, []float64{1, 1, 10}, 300)
	if got, _ := d.BestAt(d.Touch(0)); got != 2 {
		t.Errorf("learner failed to adapt; greedy = %d, want 2", got)
	}
}

func TestDefaults(t *testing.T) {
	if DefaultLearningRate != 0.9 || DefaultDiscount != 0.1 || DefaultEpsilon != 0.1 {
		t.Errorf("defaults = (%v, %v, %v), want paper's (0.9, 0.1, 0.1)",
			DefaultLearningRate, DefaultDiscount, DefaultEpsilon)
	}
}

func TestStatesAndMemoryAccounting(t *testing.T) {
	d := NewDense(3, rng.New(11))
	if len(d.index) != 0 {
		t.Error("fresh table should have no states")
	}
	d.Touch(1)
	d.Touch(2)
	if len(d.index) != 2 {
		t.Errorf("states = %d, want 2", len(d.index))
	}
	if d.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive for a non-empty table")
	}
	grown := d.MemoryBytes()
	d.Touch(3)
	if d.MemoryBytes() <= grown {
		t.Error("MemoryBytes should grow with states")
	}
}

// Property: the update rule is a contraction toward the target — the
// post-update value always lies between the old value and the target
// for learning rates in (0, 1].
func TestUpdateContractionProperty(t *testing.T) {
	d := NewDense(3, rng.New(13))
	f := func(q0Raw, rewardRaw int8, lrRaw uint8) bool {
		q0 := float64(q0Raw)
		reward := float64(rewardRaw)
		lr := (float64(lrRaw%100) + 1) / 100
		set(d, 1, 0, q0)
		set(d, 2, 0, 0)
		d.UpdateAt(d.Touch(1), 0, reward, d.Touch(2), 0, lr, 0)
		got := q(d, 1, 0)
		lo, hi := math.Min(q0, reward), math.Max(q0, reward)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
