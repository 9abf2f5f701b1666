package experiments

import (
	"fmt"

	"autofl/internal/data"
	"autofl/internal/metrics"
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// Fig01Headroom reproduces Figure 1: the PPW headroom left on the
// table by random selection, exposed by the Performance policy and the
// full OFL oracle under field conditions.
func Fig01Headroom(o Options) *Figure {
	cfg := baseConfig(o)
	random := runPolicy(cfg, policy.NewRandom(o.Seed))
	perf := runPolicy(cfg, policy.NewPerformance(o.Seed))
	ofl := runPolicy(cfg, policy.NewOFL())

	base := random.GlobalPPW()
	f := &Figure{
		ID:         "fig01",
		Title:      "PPW headroom of judicious participant/target selection",
		PaperClaim: "up to 5.4x PPW over random selection (Performance and OFL); 4.2x convergence headroom",
		Series: []Series{{
			Label: "global PPW vs FedAvg-Random",
			Points: []Point{
				{X: "FedAvg-Random", Y: 1},
				{X: "Performance", Y: ratio0(perf.GlobalPPW(), base)},
				{X: "OFL", Y: ratio0(ofl.GlobalPPW(), base)},
			},
		}},
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("measured OFL headroom %.1fx, Performance %.1fx",
			ratio0(ofl.GlobalPPW(), base), ratio0(perf.GlobalPPW(), base)))
	return f
}

func ratio0(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clusterPolicies builds C0 (random) plus the Table 4 clusters.
func clusterPolicies(seed uint64) []sim.Policy {
	out := []sim.Policy{policy.NewRandom(seed)}
	for _, c := range policy.Table4() {
		out = append(out, policy.NewStatic(c.Name, c, seed))
	}
	return out
}

// Fig04GlobalParams reproduces Figure 4: PPW of device clusters C0–C7
// across global-parameter settings S1–S4 for CNN-MNIST, normalized to
// C0 per setting. The paper's optimal cluster shifts from high-end-
// heavy (S1) toward mixed/low-power clusters as per-device computation
// shrinks (S3, S4).
func Fig04GlobalParams(o Options) *Figure {
	f := &Figure{
		ID:         "fig04",
		Title:      "optimal cluster vs (B, E, K) global parameters, CNN-MNIST",
		PaperClaim: "optimal cluster shifts C1->C2->C3->C4 across S1->S4",
	}
	for _, params := range workload.Settings() {
		cfg := baseConfig(o)
		cfg.Params = params
		var base float64
		series := Series{Label: workload.SettingName(params)}
		bestName, bestPPW := "", 0.0
		for i, res := range runPolicies(cfg, clusterPolicies(o.Seed)) {
			ppw := res.GlobalPPW()
			if i == 0 {
				base = ppw
			}
			name := "C0"
			if i > 0 {
				name = policy.Table4()[i-1].Name
			}
			norm := ratio0(ppw, base)
			series.Points = append(series.Points, Point{X: name, Y: norm})
			if ppw > bestPPW {
				bestPPW, bestName = ppw, name
			}
		}
		f.Series = append(f.Series, series)
		f.Notes = append(f.Notes, fmt.Sprintf("%s optimal cluster: %s",
			workload.SettingName(params), bestName))
	}
	return f
}

// Fig05RuntimeVariance reproduces Figure 5: PPW of clusters C0–C7
// under (a) no variance, (b) on-device interference, (c) weak network,
// for CNN-MNIST at S3. The paper's optimum shifts C3 -> C1 -> C5.
func Fig05RuntimeVariance(o Options) *Figure {
	f := &Figure{
		ID:         "fig05",
		Title:      "optimal cluster vs runtime variance, CNN-MNIST S3",
		PaperClaim: "optimum shifts from balanced (no variance) to high-end C1 under interference and low-power C5 under weak signal",
	}
	envs := []struct {
		name string
		env  sim.Env
	}{
		{"ideal", sim.EnvIdeal()},
		{"interference", sim.EnvInterference()},
		{"weak-network", sim.EnvWeakNetwork()},
	}
	for _, e := range envs {
		cfg := baseConfig(o)
		cfg.Env = e.env
		var base float64
		series := Series{Label: e.name}
		bestName, bestPPW := "", 0.0
		for i, res := range runPolicies(cfg, clusterPolicies(o.Seed)) {
			ppw := res.GlobalPPW()
			if i == 0 {
				base = ppw
			}
			name := "C0"
			if i > 0 {
				name = policy.Table4()[i-1].Name
			}
			series.Points = append(series.Points, Point{X: name, Y: ratio0(ppw, base)})
			if ppw > bestPPW {
				bestPPW, bestName = ppw, name
			}
		}
		f.Series = append(f.Series, series)
		f.Notes = append(f.Notes, fmt.Sprintf("%s optimal cluster: %s", e.name, bestName))
	}
	return f
}

// Fig06DataHeterogeneity reproduces Figure 6: (a) convergence curves
// and (b) PPW for the four data-distribution scenarios under random
// selection (CNN-MNIST, S3).
func Fig06DataHeterogeneity(o Options) *Figure {
	f := &Figure{
		ID:         "fig06",
		Title:      "model quality and PPW vs data heterogeneity (random selection)",
		PaperClaim: "non-IID devices defer or prevent convergence; >85% PPW gap vs ideal selection",
	}
	ppwSeries := Series{Label: "global PPW vs IID"}
	var iidPPW float64
	scenarios := data.Scenarios()
	cfgs := make([]sim.Config, len(scenarios))
	ps := make([]sim.Policy, len(scenarios))
	for i, sc := range scenarios {
		cfgs[i] = baseConfig(o)
		cfgs[i].Data = sc
		ps[i] = policy.NewRandom(o.Seed)
	}
	results := runConfigs(cfgs, ps)
	for i, sc := range scenarios {
		res := results[i]
		if sc == data.IdealIID {
			iidPPW = res.GlobalPPW()
		}
		ppwSeries.Points = append(ppwSeries.Points, Point{X: sc.Name, Y: ratio0(res.GlobalPPW(), iidPPW)})

		// Downsample the accuracy trace to 10 points per scenario.
		trace := Series{Label: "accuracy " + sc.Name}
		step := len(res.Trace.Accuracy) / 10
		if step < 1 {
			step = 1
		}
		for i := step - 1; i < len(res.Trace.Accuracy); i += step {
			trace.Points = append(trace.Points, Point{X: fmt.Sprintf("r%d", i+1), Y: res.Trace.Accuracy[i]})
		}
		f.Series = append(f.Series, trace)
		conv := "did not converge"
		if res.Converged {
			conv = "converged at round " +
				metrics.FormatRound(true, res.ConvergedRound, res.Rounds)
		}
		f.Notes = append(f.Notes, fmt.Sprintf("%s: final accuracy %.3f, %s", sc.Name, res.FinalAccuracy, conv))
	}
	f.Series = append(f.Series, ppwSeries)
	return f
}

// Table4Characterization reproduces the Table 4 cluster
// characterization at S3 field conditions: per-cluster round time,
// average participant power, and normalized PPW.
func Table4Characterization(o Options) *Figure {
	f := &Figure{
		ID:         "table4",
		Title:      "cluster characterization (round time, power, PPW) at S3",
		PaperClaim: "C1 fastest rounds; C7 lowest power; balanced clusters trade between them",
	}
	timeSeries := Series{Label: "mean round seconds"}
	powerSeries := Series{Label: "mean participant watts"}
	ppwSeries := Series{Label: "global PPW vs C0"}
	var base float64
	for i, res := range runPolicies(baseConfig(o), clusterPolicies(o.Seed)) {
		name := "C0"
		if i > 0 {
			name = policy.Table4()[i-1].Name
		}
		ppw := res.GlobalPPW()
		if i == 0 {
			base = ppw
		}
		watts := 0.0
		if res.TimeToTargetSec > 0 {
			watts = res.ParticipantEnergyToTargetJ / res.TimeToTargetSec
		}
		timeSeries.Points = append(timeSeries.Points, Point{X: name, Y: res.MeanRoundSec})
		powerSeries.Points = append(powerSeries.Points, Point{X: name, Y: watts})
		ppwSeries.Points = append(ppwSeries.Points, Point{X: name, Y: ratio0(ppw, base)})
	}
	f.Series = []Series{timeSeries, powerSeries, ppwSeries}

	c1, _ := f.seriesValue("mean round seconds", "C1")
	c7, _ := f.seriesValue("mean round seconds", "C7")
	f.Notes = append(f.Notes, fmt.Sprintf("C1 rounds %.0fs vs C7 %.0fs", c1, c7))
	p1, _ := f.seriesValue("mean participant watts", "C1")
	p7, _ := f.seriesValue("mean participant watts", "C7")
	f.Notes = append(f.Notes, fmt.Sprintf("C1 participant power %.1fW vs C7 %.1fW", p1, p7))
	return f
}
