// Package fedavg runs genuine federated averaging (McMahan et al.) on
// synthetic classification data with the pure-Go trainer of
// internal/nn. It exists to validate the learning-side behaviour the
// paper's evaluation depends on — partial participation, local epochs,
// and Dirichlet non-IID degradation — with real gradients rather than
// the analytic model of internal/sim.
package fedavg

import (
	"fmt"
	"math"

	"autofl/internal/data"
	"autofl/internal/nn"
	"autofl/internal/rng"
	"autofl/internal/tensor"
)

// Dataset is a labeled design matrix.
type Dataset struct {
	X      *tensor.Matrix
	Labels []int
}

// Len is the sample count.
func (d *Dataset) Len() int { return len(d.Labels) }

// SyntheticSpec describes the synthetic classification problem: a
// Gaussian mixture with one center per class. It stands in for MNIST
// in the real-training substrate (the substitution preserves what the
// evaluation needs — class structure and per-class separability).
type SyntheticSpec struct {
	Classes int
	// Dim is the feature dimensionality.
	Dim int
	// Spread is the intra-class standard deviation relative to the
	// unit-norm class centers; larger is harder.
	Spread float64
}

// DefaultSynthetic is a 10-class, 24-dimensional problem — learnable
// to high accuracy in tens of federated rounds, like MNIST.
func DefaultSynthetic() SyntheticSpec {
	return SyntheticSpec{Classes: 10, Dim: 24, Spread: 0.28}
}

// Problem holds the generated class centers and samples datasets from
// them.
type Problem struct {
	Spec    SyntheticSpec
	centers *tensor.Matrix
}

// NewProblem draws the class centers.
func NewProblem(spec SyntheticSpec, s *rng.Stream) *Problem {
	centers := tensor.New(spec.Classes, spec.Dim)
	for c := 0; c < spec.Classes; c++ {
		row := centers.Row(c)
		norm := 0.0
		for i := range row {
			row[i] = s.Normal(0, 1)
			norm += row[i] * row[i]
		}
		// Unit-normalize so Spread controls difficulty directly.
		if norm > 0 {
			inv := 1 / math.Sqrt(norm)
			for i := range row {
				row[i] *= inv
			}
		}
	}
	return &Problem{Spec: spec, centers: centers}
}

// Sample draws n labeled samples with the given per-class proportions
// (nil means uniform).
func (p *Problem) Sample(s *rng.Stream, n int, proportions []float64) *Dataset {
	if proportions == nil {
		proportions = make([]float64, p.Spec.Classes)
		for i := range proportions {
			proportions[i] = 1
		}
	}
	x := tensor.New(n, p.Spec.Dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := s.Categorical(proportions)
		labels[i] = c
		center := p.centers.Row(c)
		row := x.Row(i)
		for j := range row {
			row[j] = center[j] + s.Normal(0, p.Spec.Spread)
		}
	}
	return &Dataset{X: x, Labels: labels}
}

// ClientData materializes per-device datasets from a partition
// produced by data.Partition: IID devices sample uniformly, non-IID
// devices sample by their Dirichlet proportions.
func (p *Problem) ClientData(s *rng.Stream, partition []data.DeviceData) []*Dataset {
	out := make([]*Dataset, len(partition))
	for i := range partition {
		out[i] = p.Sample(s, partition[i].Samples, partition[i].Proportions)
	}
	return out
}

// LocalTrain runs E epochs of minibatch SGD on a client dataset
// starting from the given flat parameters, returning the updated
// parameters. It is the client-side step of Fig 2 (step 3), shared by
// the in-process trainer and the TCP clients.
func LocalTrain(model *nn.MLP, params []float64, ds *Dataset, epochs, batch int, lr float64, s *rng.Stream) ([]float64, error) {
	if err := model.SetParams(params); err != nil {
		return nil, err
	}
	n := ds.Len()
	if n == 0 {
		return model.Params(), nil
	}
	if batch < 1 {
		batch = 1
	}
	for e := 0; e < epochs; e++ {
		perm := s.Perm(n)
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			bx := tensor.New(end-start, ds.X.Cols)
			bl := make([]int, end-start)
			for i := start; i < end; i++ {
				copy(bx.Row(i-start), ds.X.Row(perm[i]))
				bl[i-start] = ds.Labels[perm[i]]
			}
			model.TrainBatch(bx, bl, lr)
		}
	}
	return model.Params(), nil
}

// Config drives an in-process federated training run.
type Config struct {
	Spec SyntheticSpec
	// Devices is the client population size.
	Devices int
	// Data is the heterogeneity scenario.
	Data data.Scenario
	// SamplesPerDevice is the mean local dataset size.
	SamplesPerDevice int
	// K, Epochs, Batch are FedAvg's per-round parameters.
	K, Epochs, Batch int
	// LR is the client learning rate.
	LR float64
	// TestSamples sizes the held-out evaluation set.
	TestSamples int
	// Hidden is the MLP hidden width.
	Hidden int
	// Seed drives everything.
	Seed uint64
}

// DefaultConfig returns a laptop-scale configuration that converges in
// tens of rounds.
func DefaultConfig() Config {
	return Config{
		Spec:             DefaultSynthetic(),
		Devices:          40,
		Data:             data.IdealIID,
		SamplesPerDevice: 80,
		K:                8,
		Epochs:           2,
		Batch:            16,
		LR:               0.1,
		TestSamples:      1000,
		Hidden:           32,
		Seed:             1,
	}
}

// Trainer runs FedAvg rounds in process.
type Trainer struct {
	cfg     Config
	problem *Problem
	clients []*Dataset
	// Partition records each client's class assignment.
	Partition []data.DeviceData
	test      *Dataset
	global    *nn.MLP
	scratch   *nn.MLP
	rng       *rng.Stream
}

// NewTrainer partitions data and initializes the global model.
func NewTrainer(cfg Config) (*Trainer, error) {
	if cfg.Devices <= 0 || cfg.K <= 0 {
		return nil, fmt.Errorf("fedavg: need positive Devices and K")
	}
	root := rng.New(cfg.Seed)
	problem := NewProblem(cfg.Spec, root.Fork())
	partition := data.Partition(root.Fork(), cfg.Data, cfg.Devices, cfg.Spec.Classes, cfg.SamplesPerDevice)
	clients := problem.ClientData(root.Fork(), partition)
	test := problem.Sample(root.Fork(), cfg.TestSamples, nil)
	global := nn.NewMLP(root.Fork(), cfg.Spec.Dim, cfg.Hidden, cfg.Spec.Classes)
	return &Trainer{
		cfg:       cfg,
		problem:   problem,
		clients:   clients,
		Partition: partition,
		test:      test,
		global:    global,
		scratch:   global.Clone(),
		rng:       root.Fork(),
	}, nil
}

// Accuracy evaluates the global model on the held-out test set.
func (t *Trainer) Accuracy() float64 { return t.global.Accuracy(t.test.X, t.test.Labels) }

// Selector picks the participant client indices for a round.
type Selector func(round int, partition []data.DeviceData) []int

// RandomSelector is the FedAvg baseline: K uniform clients.
func RandomSelector(k int, seed uint64) Selector {
	s := rng.New(seed)
	return func(round int, partition []data.DeviceData) []int {
		return s.Sample(len(partition), k)
	}
}

// QualitySelector picks the K clients with the highest IID quality —
// the selection a converged AutoFL controller settles on under data
// heterogeneity.
func QualitySelector(k int) Selector {
	return func(round int, partition []data.DeviceData) []int {
		type scored struct {
			idx int
			q   float64
		}
		all := make([]scored, len(partition))
		for i := range partition {
			all[i] = scored{i, partition[i].IIDQuality()}
		}
		for i := 1; i < len(all); i++ { // insertion sort, stable enough
			for j := i; j > 0 && all[j].q > all[j-1].q; j-- {
				all[j], all[j-1] = all[j-1], all[j]
			}
		}
		if k > len(all) {
			k = len(all)
		}
		out := make([]int, k)
		for i := 0; i < k; i++ {
			out[i] = all[i].idx
		}
		return out
	}
}

// Round executes one aggregation round with the given selector and
// returns the post-round test accuracy.
func (t *Trainer) Round(round int, sel Selector) (float64, error) {
	indices := sel(round, t.Partition)
	globalParams := t.global.Params()
	var vectors [][]float64
	var weights []float64
	for _, idx := range indices {
		if idx < 0 || idx >= len(t.clients) {
			return 0, fmt.Errorf("fedavg: selector returned invalid client %d", idx)
		}
		updated, err := LocalTrain(t.scratch, globalParams, t.clients[idx], t.cfg.Epochs, t.cfg.Batch, t.cfg.LR, t.rng)
		if err != nil {
			return 0, err
		}
		vectors = append(vectors, append([]float64(nil), updated...))
		weights = append(weights, float64(t.clients[idx].Len()))
	}
	if len(vectors) == 0 {
		return t.Accuracy(), nil
	}
	avg, err := nn.AverageParams(vectors, weights)
	if err != nil {
		return 0, err
	}
	if err := t.global.SetParams(avg); err != nil {
		return 0, err
	}
	return t.Accuracy(), nil
}

// Run executes rounds and returns the accuracy trace.
func (t *Trainer) Run(rounds int, sel Selector) ([]float64, error) {
	trace := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		acc, err := t.Round(r, sel)
		if err != nil {
			return trace, err
		}
		trace = append(trace, acc)
	}
	return trace, nil
}
