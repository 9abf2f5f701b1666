// Straggler: compare the runtime-variance environments of §3.2 —
// ideal, on-device interference, and weak network — and show how much
// energy efficiency AutoFL recovers by adapting its selections (the
// Fig 5 / Fig 10 story).
package main

import (
	"fmt"
	"log"

	"autofl"
)

func main() {
	for _, env := range []autofl.Environment{
		autofl.EnvIdeal, autofl.EnvInterference, autofl.EnvWeakNetwork,
	} {
		scenario := autofl.Scenario{
			Workload: autofl.CNNMNIST,
			Setting:  autofl.S3,
			Data:     autofl.IdealIID,
			Env:      env,
			Seed:     11,
		}
		random, err := scenario.Run(autofl.PolicyRandom)
		if err != nil {
			log.Fatal(err)
		}
		auto, err := scenario.Run(autofl.PolicyAutoFL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13s random: %6.0f kJ in %5.1f h | AutoFL: %6.0f kJ in %5.1f h (%.1fx PPW)\n",
			env,
			random.EnergyToTargetJ/1e3, random.TimeToTargetSec/3600,
			auto.EnergyToTargetJ/1e3, auto.TimeToTargetSec/3600,
			auto.GlobalPPW()/random.GlobalPPW())
	}
}
