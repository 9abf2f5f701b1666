package schedule

import (
	"bytes"
	"context"
	"math"
	"testing"

	"autofl/internal/rng"
	"autofl/internal/sweep"
)

// propertyGrid is a mixed-workload grid whose cells have genuinely
// different predicted costs.
func propertyGrid() sweep.Grid {
	return sweep.Grid{
		Workloads:  []string{"CNN-MNIST", "LSTM-Shakespeare", "MobileNet-ImageNet"},
		Data:       []string{"iid", "noniid50"},
		Policies:   []string{"FedAvg-Random", "AutoFL"},
		Replicates: 2,
		Seed:       9,
	}
}

func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}

// TestOrderIsPermutation fuzzes Order with random cost functions and
// checks every output is a permutation sorted by descending cost.
func TestOrderIsPermutation(t *testing.T) {
	s := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		n := 1 + s.IntN(64)
		costs := make([]float64, n)
		for i := range costs {
			// Coarse quantization forces plenty of ties.
			costs[i] = float64(s.IntN(5))
		}
		order := Order(n, func(i int) float64 { return costs[i] })
		if !isPermutation(order, n) {
			t.Fatalf("trial %d: order %v is not a permutation of [0, %d)", trial, order, n)
		}
		for i := 1; i < n; i++ {
			a, b := costs[order[i-1]], costs[order[i]]
			if a < b {
				t.Fatalf("trial %d: costs out of order at %d: %v < %v", trial, i, a, b)
			}
			if a == b && order[i-1] > order[i] {
				t.Fatalf("trial %d: tie at %d broke expansion order: %d before %d",
					trial, i, order[i-1], order[i])
			}
		}
	}
}

// TestOrderStableUnderEqualCosts pins the degenerate case: a constant
// cost function must yield the identity (FIFO) order.
func TestOrderStableUnderEqualCosts(t *testing.T) {
	order := Order(40, func(i int) float64 { return 7 })
	for i, v := range order {
		if v != i {
			t.Fatalf("equal costs must keep FIFO order: order[%d] = %d", i, v)
		}
	}
	if Order(0, func(i int) float64 { return 0 }) != nil {
		t.Error("Order of an empty range must be nil")
	}
}

// staticOrder is the cost order of cells at the given horizon under
// the static model: descending predicted cost, ties in expansion order.
func staticOrder(cells []sweep.Cell, rounds int) []int {
	m := Static()
	return Order(len(cells), func(i int) float64 { return m.Predict(cells[i].Workload, rounds) })
}

// TestOrderCellsIsPermutation checks the cost order of a real
// mixed-workload grid's cells.
func TestOrderCellsIsPermutation(t *testing.T) {
	g := propertyGrid()
	cells := g.Cells()
	order := staticOrder(cells, 100)
	if !isPermutation(order, len(cells)) {
		t.Fatalf("the cost order is not a permutation of the grid")
	}
	// The heaviest workload must be claimed before the lightest.
	first := cells[order[0]].Workload
	if first != "MobileNet-ImageNet" {
		t.Errorf("first claimed workload = %s, want the heaviest (MobileNet-ImageNet)", first)
	}
	last := cells[order[len(order)-1]].Workload
	if last != "CNN-MNIST" {
		t.Errorf("last claimed workload = %s, want the lightest (CNN-MNIST)", last)
	}
}

// fakeRunner derives a deterministic outcome from the cell seed.
func fakeRunner(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
	s := rng.New(seed)
	return sweep.Outcome{
		Rounds:        1 + s.IntN(100),
		GlobalPPW:     s.Float64(),
		FinalAccuracy: s.Float64(),
	}, nil
}

// TestCostOrderMatchesFIFOOutput is the scheduler's safety property:
// claim order never changes exported bytes.
func TestCostOrderMatchesFIFOOutput(t *testing.T) {
	g := propertyGrid()
	fifo, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	order := staticOrder(g.Cells(), 100)
	cost, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 4, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	var bf, bc bytes.Buffer
	if err := fifo.WriteJSON(&bf); err != nil {
		t.Fatal(err)
	}
	if err := cost.WriteJSON(&bc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bf.Bytes(), bc.Bytes()) {
		t.Error("cost-ordered JSON differs from FIFO JSON")
	}
}

// TestStaticModelWeights pins the prior: heavier workloads predict
// higher cost, horizon scales linearly, unknown workloads get the
// fallback.
func TestStaticModelWeights(t *testing.T) {
	m := Static()
	cnn := m.Predict("CNN-MNIST", 100)
	mob := m.Predict("MobileNet-ImageNet", 100)
	lstm := m.Predict("LSTM-Shakespeare", 100)
	if cnn <= 0 || mob <= 0 || lstm <= 0 {
		t.Fatalf("non-positive predictions: cnn=%v lstm=%v mob=%v", cnn, lstm, mob)
	}
	if mob <= cnn {
		t.Errorf("MobileNet (%v) must out-cost CNN-MNIST (%v)", mob, cnn)
	}
	if got := m.Predict("CNN-MNIST", 200); math.Abs(got-2*cnn) > 1e-9 {
		t.Errorf("doubling the horizon must double cost: %v vs %v", got, 2*cnn)
	}
	if got := m.Predict("no-such-workload", 100); got != 100 {
		t.Errorf("unknown workload fallback = %v, want 100 (weight 1)", got)
	}
	if got := m.Predict("CNN-MNIST", 0); got != m.Predict("CNN-MNIST", 1) {
		t.Errorf("rounds < 1 must clamp to 1: %v", got)
	}
}

// TestCalibrate checks measured seconds-per-round replace the priors
// and unseen workloads scale from them.
func TestCalibrate(t *testing.T) {
	obs := []Observation{
		{Workload: "CNN-MNIST", Rounds: 100, Seconds: 10},        // 0.1 s/round
		{Workload: "CNN-MNIST", Rounds: 100, Seconds: 30},        // 0.3 s/round
		{Workload: "LSTM-Shakespeare", Rounds: 50, Seconds: 100}, // 2 s/round
		{Workload: "ignored", Rounds: 0, Seconds: 5},
		{Workload: "ignored", Rounds: 10, Seconds: 0},
	}
	m := Calibrate(obs)
	if got := m.Predict("CNN-MNIST", 10); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("calibrated CNN cost = %v, want mean 0.2 s/round × 10 = 2", got)
	}
	if got := m.Predict("LSTM-Shakespeare", 10); math.Abs(got-20.0) > 1e-9 {
		t.Errorf("calibrated LSTM cost = %v, want 20", got)
	}
	// MobileNet was never observed: it must still be priced, and above
	// the observed CNN (its FLOPs weight is far larger).
	mob := m.Predict("MobileNet-ImageNet", 10)
	if mob <= m.Predict("CNN-MNIST", 10) {
		t.Errorf("unseen MobileNet (%v) must out-cost observed CNN", mob)
	}

	// No usable observations degrade to the static prior.
	empty := Calibrate([]Observation{{Workload: "x", Rounds: 0, Seconds: 0}})
	static := Static()
	for _, w := range []string{"CNN-MNIST", "LSTM-Shakespeare", "MobileNet-ImageNet"} {
		if empty.Predict(w, 10) != static.Predict(w, 10) {
			t.Errorf("empty calibration must equal Static for %s", w)
		}
	}
}
