package experiments

import (
	"fmt"
	"math"
	"time"

	"autofl/internal/core"
	"autofl/internal/data"
	"autofl/internal/fedavg"
	"autofl/internal/sim"
)

// OverheadAnalysis reproduces the §6.4 controller-overhead numbers:
// wall-clock cost of the controller's select and reward/update steps,
// their share of a round, and the Q-table memory footprint. Select is
// timed alone, through timedSelect, not with the engine's observe,
// barrier and convergence work around it.
func OverheadAnalysis(o Options) *Figure {
	f := &Figure{
		ID:         "overhead",
		Title:      "AutoFL controller overhead",
		PaperClaim: "531.5us per round total (observe 496.8 / select 10.5 / reward 2.1 / update 22.1); 80MB for 200 per-device tables; <1% of round time",
	}
	cfg := baseConfig(o)
	cfg.MaxRounds = o.rounds(200)
	cfg.TargetAccuracy = 1.1
	eng := sim.New(cfg)
	ctrl := &timedSelect{Controller: core.New(core.DefaultOptions(o.Seed))}

	var feedbackDur time.Duration
	var roundSec float64
	acc := cfg.Workload.AccuracyFloor
	rounds := 0
	for round := 0; round < cfg.MaxRounds; round++ {
		ctx, res := eng.RunRound(ctrl, round, acc)
		t1 := time.Now()
		ctrl.Feedback(ctx, res)
		feedbackDur += time.Since(t1)
		acc = res.Accuracy
		roundSec += res.RoundSec
		rounds++
	}
	perSelect := ctrl.d.Seconds() / float64(rounds) * 1e6
	perFeedback := feedbackDur.Seconds() / float64(rounds) * 1e6
	memMB := float64(ctrl.MemoryBytes()) / 1e6
	share := (ctrl.d.Seconds() + feedbackDur.Seconds()) / roundSec * 100

	f.Series = []Series{{
		Label: "controller cost",
		Points: []Point{
			{X: "select-us", Y: perSelect},
			{X: "feedback-us", Y: perFeedback},
			{X: "tables-MB", Y: memMB},
			{X: "round-share-%", Y: share},
		},
	}}
	f.Notes = append(f.Notes,
		fmt.Sprintf("select %.0fus + feedback %.0fus per round; tables %.1fMB; %.3f%% of simulated round time",
			perSelect, perFeedback, memMB, share))
	return f
}

// timedSelect wraps the controller and accumulates the wall time of
// its Select calls alone. Embedding keeps the controller's other
// methods (Name, Feedback, MemoryBytes) promoted, so the engine
// drives it exactly as it drives the bare controller.
type timedSelect struct {
	*core.Controller
	d time.Duration
}

func (t *timedSelect) Select(ctx *sim.RoundContext) []sim.Selection {
	t0 := time.Now()
	sel := t.Controller.Select(ctx)
	t.d += time.Since(t0)
	return sel
}

// EnergyModelError reproduces the §4.1 estimator-fidelity claim: the
// mean absolute percentage error of the pre-round energy prediction
// (which sees only the observed co-runner state) against the energy
// actually burned (with surprise load changes during execution).
func EnergyModelError(o Options) *Figure {
	f := &Figure{
		ID:         "energy-error",
		Title:      "energy estimator error (predicted vs executed)",
		PaperClaim: "7.3% mean absolute percentage error",
	}
	cfg := baseConfig(o)
	cfg.MaxRounds = o.rounds(150)
	cfg.TargetAccuracy = 1.1
	eng := sim.New(cfg)
	p := core.New(core.DefaultOptions(o.Seed))

	var absErrSum float64
	samples := 0
	acc := cfg.Workload.AccuracyFloor
	for round := 0; round < cfg.MaxRounds; round++ {
		ctx, res := eng.RunRound(p, round, acc)
		p.Feedback(ctx, res)
		for _, dr := range res.Devices {
			if !dr.Selected || dr.EnergyJ <= 0 {
				continue
			}
			predicted := ctx.EstimateEnergy(dr.Index, dr.Target, dr.Step, res.RoundSec)
			absErrSum += math.Abs(predicted-dr.EnergyJ) / dr.EnergyJ
			samples++
		}
		acc = res.Accuracy
	}
	mape := 0.0
	if samples > 0 {
		mape = absErrSum / float64(samples) * 100
	}
	f.Series = []Series{{
		Label:  "estimator",
		Points: []Point{{X: "MAPE-%", Y: mape}},
	}}
	f.Notes = append(f.Notes, fmt.Sprintf("measured MAPE %.1f%% over %d device-rounds", mape, samples))
	return f
}

// HyperparamSensitivity reproduces the §5.3 sweep: learning rate γ and
// discount µ over {0.1, 0.5, 0.9}, scored by the resulting global PPW
// (the paper scores by prediction accuracy; PPW is the downstream
// quantity it exists to serve).
func HyperparamSensitivity(o Options) *Figure {
	f := &Figure{
		ID:         "hyper",
		Title:      "Q-learning hyperparameter sensitivity",
		PaperClaim: "learning rate 0.9 and discount 0.1 perform best",
	}
	values := []float64{0.1, 0.5, 0.9}

	lrSeries := Series{Label: "PPW vs learning-rate (discount 0.1)"}
	bestLR, bestLRv := 0.0, -1.0
	for _, lr := range values {
		opts := core.DefaultOptions(o.Seed)
		opts.LearningRate = lr
		opts.Discount = 0.1
		cfg := baseConfig(o)
		res := runPolicy(cfg, core.New(opts))
		ppw := res.GlobalPPW()
		lrSeries.Points = append(lrSeries.Points, Point{X: fmt.Sprintf("%.1f", lr), Y: ppw * 1e6})
		if ppw > bestLRv {
			bestLRv, bestLR = ppw, lr
		}
	}
	f.Series = append(f.Series, lrSeries)

	muSeries := Series{Label: "PPW vs discount (learning-rate 0.9)"}
	bestMu, bestMuv := 0.0, -1.0
	for _, mu := range values {
		opts := core.DefaultOptions(o.Seed)
		opts.LearningRate = 0.9
		opts.Discount = mu
		cfg := baseConfig(o)
		res := runPolicy(cfg, core.New(opts))
		ppw := res.GlobalPPW()
		muSeries.Points = append(muSeries.Points, Point{X: fmt.Sprintf("%.1f", mu), Y: ppw * 1e6})
		if ppw > bestMuv {
			bestMuv, bestMu = ppw, mu
		}
	}
	f.Series = append(f.Series, muSeries)
	f.Notes = append(f.Notes, fmt.Sprintf("best learning rate %.1f, best discount %.1f (PPW scaled x1e6)", bestLR, bestMu))
	return f
}

// RealFedAvgValidation cross-validates the analytic convergence model
// against genuine federated SGD (internal/fedavg): IID converges high,
// Dirichlet non-IID trails, and a stable quality-driven cohort (what
// AutoFL learns) recovers most of the loss.
func RealFedAvgValidation(o Options) *Figure {
	f := &Figure{
		ID:         "realfl",
		Title:      "real federated SGD cross-validation (pure-Go trainer)",
		PaperClaim: "non-IID clients slow convergence (Fig 6a); learned selection restores it (Fig 11)",
	}
	rounds := 40
	if o.Quick {
		rounds = 15
	}
	run := func(sc data.Scenario, sel fedavg.Selector, label string) float64 {
		cfg := fedavg.DefaultConfig()
		cfg.Data = sc
		cfg.Seed = o.Seed + 1
		tr, err := fedavg.NewTrainer(cfg)
		if err != nil {
			f.Notes = append(f.Notes, err.Error())
			return 0
		}
		trace, err := tr.Run(rounds, sel)
		if err != nil {
			f.Notes = append(f.Notes, err.Error())
			return 0
		}
		series := Series{Label: label}
		step := len(trace) / 8
		if step < 1 {
			step = 1
		}
		for i := step - 1; i < len(trace); i += step {
			series.Points = append(series.Points, Point{X: fmt.Sprintf("r%d", i+1), Y: trace[i]})
		}
		f.Series = append(f.Series, series)
		return trace[len(trace)-1]
	}
	k := fedavg.DefaultConfig().K
	iid := run(data.IdealIID, fedavg.RandomSelector(k, o.Seed+2), "IID random")
	non := run(data.NonIID100, fedavg.RandomSelector(k, o.Seed+2), "NonIID100 random")
	// Quality selection is evaluated at Non-IID(75%), where IID
	// devices exist for the selector to find — the situation AutoFL's
	// S_Data feature exploits. (At 100% non-IID with tiny K, a fixed
	// high-quality cohort trades away data coverage with real SGD;
	// the simulator's stability benefit needs the larger fleets of the
	// main experiments.)
	nr := run(data.NonIID75, fedavg.RandomSelector(k, o.Seed+2), "NonIID75 random")
	qual := run(data.NonIID75, fedavg.QualitySelector(k), "NonIID75 quality-selected")
	f.Notes = append(f.Notes, fmt.Sprintf(
		"final accuracy: IID %.3f, NonIID100 random %.3f, NonIID75 random %.3f, NonIID75 quality-selected %.3f",
		iid, non, nr, qual))
	return f
}
