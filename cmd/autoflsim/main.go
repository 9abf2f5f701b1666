// Command autoflsim runs one federated-learning scenario under a
// chosen selection policy (or all of them) and prints the measured
// energy efficiency, convergence time, and accuracy.
//
// With -progress the run streams live per-round output to stderr
// through the Session observer API while it executes.
//
// Examples:
//
//	autoflsim -policy AutoFL -workload CNN-MNIST -setting S3 -env field
//	autoflsim -policy AutoFL -progress -rounds 300
//	autoflsim -compare -data noniid75
//	autoflsim -policy FedAvg-Random -devices 1000000 -sample 4096 -rounds 50
//	autoflsim -policy AutoFL -async-mode async -alpha 0.5 -rounds 200
//	autoflsim -async-mode semi-async -agg-k 20 -agg-deadline 30
//	autoflsim -policy Battery-Weighted -battery-profile charger -rounds 200
package main

import (
	"flag"
	"fmt"
	"os"

	"autofl"
	"autofl/internal/metrics"
)

func main() {
	var (
		workloadName = flag.String("workload", string(autofl.CNNMNIST), "workload: CNN-MNIST | LSTM-Shakespeare | MobileNet-ImageNet")
		setting      = flag.String("setting", "S3", "global parameters: S1 | S2 | S3 | S4 (Table 5)")
		dataScenario = flag.String("data", "iid", "data heterogeneity: iid | noniid50 | noniid75 | noniid100")
		env          = flag.String("env", "field", "runtime variance: ideal | interference | weak-network | field")
		policyName   = flag.String("policy", string(autofl.PolicyAutoFL), "selection policy (see -list)")
		seed         = flag.Uint64("seed", 1, "random seed (runs are reproducible per seed)")
		rounds       = flag.Int("rounds", 0, "max aggregation rounds (0 = paper default 1000)")
		compare      = flag.Bool("compare", false, "run every policy and normalize to FedAvg-Random")
		progress     = flag.Bool("progress", false, "stream live per-round progress to stderr")
		every        = flag.Int("progress-every", 25, "with -progress, print every Nth round")
		list         = flag.Bool("list", false, "list available policies and exit")
		devices      = flag.Int("devices", 0, "population size in the paper's tier mix (0 = the 200-device testbed)")
		sample       = flag.Int("sample", 0, "per-round candidate pool for large populations (0 = exhaustive; requires -devices)")
		asyncMode    = flag.String("async-mode", "", "aggregation regime: sync | async | semi-async (empty = sync)")
		alpha        = flag.Float64("alpha", 0, "staleness-weighting exponent for async modes (0 = default 0.5)")
		aggK         = flag.Int("agg-k", 0, "semi-async quorum: aggregate at this many arrivals (0 = half the cohort)")
		aggDeadline  = flag.Float64("agg-deadline", 0, "semi-async aggregation deadline in seconds (0 = derived from in-flight completion times)")
		battProfile  = flag.String("battery-profile", "", "attach the battery model with this harvesting profile: none | charger | solar-diurnal (empty = no battery)")
		battCapacity = flag.Float64("battery-capacity", 0, "battery capacity in joules (0 = preset 2000 J; requires -battery-profile)")
		battThresh   = flag.Float64("battery-threshold", 0, "participation threshold in joules — devices below it sit rounds out (0 = 15% of capacity)")
	)
	flag.Usage = usage
	flag.Parse()

	if *list {
		for _, p := range autofl.Policies() {
			fmt.Println(p)
		}
		// The battery-aware baselines are runnable but outside the
		// paper's evaluation matrix.
		fmt.Printf("%s (battery baseline)\n", autofl.PolicyBatteryWeighted)
		fmt.Printf("%s (battery baseline)\n", autofl.PolicyAllAvailable)
		return
	}

	scenario := autofl.Scenario{
		Workload:  autofl.Workload(*workloadName),
		Setting:   autofl.Setting(*setting),
		Data:      autofl.DataScenario(*dataScenario),
		Env:       autofl.Environment(*env),
		Seed:      *seed,
		MaxRounds: *rounds,
	}
	if *devices < 0 {
		fatal(fmt.Errorf("-devices %d is negative (0 = the 200-device testbed)", *devices))
	}
	if *sample != 0 && *devices == 0 {
		fatal(fmt.Errorf("-sample requires -devices (the 200-device testbed runs exhaustively)"))
	}
	if *devices > 0 {
		scenario.Fleet = autofl.ScaledFleet(*devices, *sample)
	}
	if *asyncMode != "" || *alpha != 0 || *aggK != 0 || *aggDeadline != 0 {
		scenario.Aggregation = &autofl.AggregationSpec{
			Mode:           autofl.AggregationMode(*asyncMode),
			StalenessAlpha: *alpha,
			AggregateK:     *aggK,
			DeadlineSec:    *aggDeadline,
		}
	}
	if *battProfile == "" && (*battCapacity != 0 || *battThresh != 0) {
		fatal(fmt.Errorf("-battery-capacity/-battery-threshold require -battery-profile (use 'none' for a pure battery)"))
	}
	if *battProfile != "" {
		// Degenerate combinations (negative capacity, threshold above
		// capacity, …) surface as typed *sim.ConfigError from Open.
		scenario.Battery = &autofl.BatterySpec{
			Profile:    autofl.BatteryProfile(*battProfile),
			CapacityJ:  *battCapacity,
			ThresholdJ: *battThresh,
		}
	}

	if *compare {
		if err := runComparison(scenario); err != nil {
			fatal(err)
		}
		return
	}

	// Single-policy runs go through the streaming Session API so
	// -progress can observe every round as it completes.
	sess, err := autofl.Open(scenario, autofl.Policy(*policyName))
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	if *progress {
		n := *every
		if n < 1 {
			n = 1
		}
		async := scenario.Aggregation != nil
		battery := scenario.Battery != nil
		sess.Observe(func(ev autofl.RoundEvent) {
			if ev.Round%n != 0 && !ev.Converged {
				return
			}
			fmt.Fprintf(os.Stderr,
				"round %4d: acc=%.3f round=%.0fs energy=%.0fJ kept=%d/%d dropped=%d",
				ev.Round, ev.Accuracy, ev.RoundSec, ev.EnergyJ,
				ev.Kept, ev.Participants, ev.Dropped)
			if async {
				fmt.Fprintf(os.Stderr, " stale=%.2f pending=%d", ev.MeanStaleness, ev.Pending)
			}
			if battery {
				fmt.Fprintf(os.Stderr, " avail=%d depleted=%d charge=%.2f jain=%.3f",
					ev.BatteryAvailable, ev.BatteryDepleted, ev.BatteryMeanCharge, ev.ParticipationJain)
			}
			fmt.Fprintln(os.Stderr)
			if ev.Converged {
				fmt.Fprintf(os.Stderr, "converged at round %d\n", ev.Round)
			}
		})
	}
	rep := sess.Run()
	printReport(rep)
	// Population runs keep packed per-device accumulators, so the fleet
	// energy distribution streams out in one O(1)-memory pass even at a
	// million devices.
	if v, ok := sess.FleetEnergyPercentiles(0.5, 0.95, 0.99); ok {
		fmt.Printf("fleet energy p50/p95/p99: %.3g / %.3g / %.3g J/device\n", v[0], v[1], v[2])
	}
	if scenario.Aggregation != nil {
		fmt.Printf("mean staleness:    %.3f\n", rep.MeanStaleness)
	}
}

func runComparison(s autofl.Scenario) error {
	reports, err := s.RunAll()
	if err != nil {
		return err
	}
	cmp, err := autofl.Compare(autofl.PolicyRandom, reports)
	if err != nil {
		return err
	}
	fmt.Printf("scenario: workload=%s setting=%s data=%s env=%s seed=%d\n",
		s.Workload, s.Setting, s.Data, s.Env, s.Seed)
	fmt.Print(cmp.String())
	return nil
}

func printReport(r *autofl.Report) {
	fmt.Printf("policy:            %s\n", r.Policy)
	if r.Converged {
		fmt.Printf("converged:         yes, round %s\n",
			metrics.FormatRound(true, r.ConvergedRound, r.Rounds))
	} else {
		fmt.Printf("converged:         never (%d rounds)\n", r.Rounds)
	}
	fmt.Printf("final accuracy:    %.3f\n", r.FinalAccuracy)
	fmt.Printf("time to target:    %.0f s\n", r.TimeToTargetSec)
	fmt.Printf("fleet energy:      %.0f J\n", r.EnergyToTargetJ)
	fmt.Printf("global PPW:        %.3g progress/J\n", r.GlobalPPW())
	fmt.Printf("local PPW:         %.3g progress/J\n", r.LocalPPW())
	if b := r.Battery; b != nil {
		fmt.Printf("participation jain: %.3f\n", b.ParticipationJain)
		fmt.Printf("mean charge:       %.2f (available %d, depleted %d)\n",
			b.MeanCharge, b.Available, b.Depleted)
	}
}

// usage prints the flags in topic groups so the population, aggregation,
// and battery knobs — which compose — read as one section instead of an
// alphabetical jumble.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, "Usage: autoflsim [flags]\n\nRuns one federated-learning scenario and prints measured efficiency.\n")
	groups := []struct {
		title string
		names []string
	}{
		{"Scenario", []string{"workload", "setting", "data", "env", "policy", "seed", "rounds"}},
		{"Population & fleet", []string{"devices", "sample"}},
		{"Aggregation regime", []string{"async-mode", "alpha", "agg-k", "agg-deadline"}},
		{"Battery & availability", []string{"battery-profile", "battery-capacity", "battery-threshold"}},
		{"Output", []string{"compare", "progress", "progress-every", "list"}},
	}
	listed := make(map[string]bool)
	printFlag := func(f *flag.Flag) {
		name, u := flag.UnquoteUsage(f)
		if name != "" {
			name = " " + name
		}
		fmt.Fprintf(w, "  -%s%s\n    \t%s", f.Name, name, u)
		if f.DefValue != "" && f.DefValue != "0" && f.DefValue != "false" {
			fmt.Fprintf(w, " (default %s)", f.DefValue)
		}
		fmt.Fprintln(w)
	}
	for _, g := range groups {
		fmt.Fprintf(w, "\n%s:\n", g.title)
		for _, n := range g.names {
			if f := flag.Lookup(n); f != nil {
				listed[n] = true
				printFlag(f)
			}
		}
	}
	// Catch-all so a flag added without a group assignment still shows.
	first := true
	flag.VisitAll(func(f *flag.Flag) {
		if listed[f.Name] {
			return
		}
		if first {
			fmt.Fprintf(w, "\nOther:\n")
			first = false
		}
		printFlag(f)
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autoflsim:", err)
	os.Exit(1)
}
