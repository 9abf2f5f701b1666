// Quickstart: simulate one federated-learning deployment with the
// AutoFL controller and print its efficiency against the FedAvg-Random
// baseline. This is the smallest end-to-end use of the public API,
// shown both ways: the one-call batch form (Scenario.Run) and the
// streaming Session form, stepping round by round with a live
// progress callback. The two produce identical reports — Run is a
// Session stepped to completion.
package main

import (
	"fmt"
	"log"

	"autofl"
)

func main() {
	scenario := autofl.Scenario{
		Workload: autofl.CNNMNIST,
		Setting:  autofl.S3,       // B=16, E=5, K=20 (Table 5)
		Data:     autofl.IdealIID, // every device holds all classes
		Env:      autofl.EnvField, // interference + variable network
		Seed:     7,
	}

	// Batch form: run the whole horizon, get one report.
	baseline, err := scenario.Run(autofl.PolicyRandom)
	if err != nil {
		log.Fatal(err)
	}

	// Streaming form: open a session, watch every round as it
	// executes, and step to completion.
	sess, err := autofl.Open(scenario, autofl.PolicyAutoFL)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	sess.Observe(func(ev autofl.RoundEvent) {
		if ev.Round%50 == 0 || ev.Converged {
			fmt.Printf("  round %3d: acc=%.3f reward=%.2f kept=%d/%d\n",
				ev.Round, ev.Accuracy, ev.Reward, ev.Kept, ev.Participants)
		}
	})
	for {
		if _, ok := sess.Step(); !ok {
			break
		}
	}
	auto := sess.Result()

	fmt.Printf("FedAvg-Random: converged=%v rounds=%d energy=%.0fJ\n",
		baseline.Converged, baseline.Rounds, baseline.EnergyToTargetJ)
	fmt.Printf("AutoFL:        converged=%v rounds=%d energy=%.0fJ\n",
		auto.Converged, auto.Rounds, auto.EnergyToTargetJ)
	fmt.Printf("AutoFL energy-efficiency improvement: %.1fx global, %.1fx per-participant\n",
		auto.GlobalPPW()/baseline.GlobalPPW(), auto.LocalPPW()/baseline.LocalPPW())
}
