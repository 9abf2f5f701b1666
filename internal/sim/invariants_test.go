package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"autofl/internal/battery"
	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/rng"
	"autofl/internal/workload"
)

// arbitraryPolicy emits randomized (sometimes invalid) selections to
// stress the engine's sanitization and accounting.
type arbitraryPolicy struct{ s *rng.Stream }

func (p *arbitraryPolicy) Name() string { return "arbitrary" }
func (p *arbitraryPolicy) Select(ctx *RoundContext) []Selection {
	n := p.s.IntN(2*ctx.Params.K + 1)
	out := make([]Selection, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Selection{
			Index:  p.s.IntN(len(ctx.Devices)+4) - 2, // may be invalid
			Target: device.Target(p.s.IntN(2)),
			Step:   p.s.IntN(30) - 5, // may be out of range
		})
	}
	return out
}

// invariantConfig is the small engine the accounting property drives:
// a 20-device fleet run exhaustively or a 3,000-device population
// sampled popShardMin at a time, in the given aggregation mode, optionally with a battery
// small enough to deplete within a few rounds. The population's
// observe pass fans out across GOMAXPROCS shards (run the test with
// -cpu 1,2,4 to vary it).
func invariantConfig(t *testing.T, source string, mode AggregationMode, batt bool) Config {
	cfg := Config{
		Workload:  workload.CNNMNIST(),
		Params:    workload.GlobalParams{B: 16, E: 5, K: 10},
		MaxRounds: 5,
		Mode:      mode,
	}
	if source == "fleet" {
		cfg.Population = testPopulation(t, 3, 7, 10)
	} else {
		pop, err := device.NewPopulation(400, 900, 1700)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Population = pop
		cfg.Sample = popShardMin
	}
	if batt {
		cfg.Battery = &battery.Spec{CapacityJ: 500, Harvest: battery.ProfileSolar}
	}
	return cfg
}

// Property: on every engine path — exhaustive or sampled; sync,
// async, or semi-async; with or without batteries — and for any seed,
// environment, and arbitrary (even malformed) policy output, every
// round satisfies the engine's accounting invariants.
func TestRoundInvariantsProperty(t *testing.T) {
	envs := []Env{EnvIdeal(), EnvInterference(), EnvWeakNetwork(), EnvField()}
	scenarios := data.Scenarios()
	for _, source := range []string{"fleet", "pop"} {
		for _, mode := range []AggregationMode{ModeSync, ModeAsync, ModeSemiAsync} {
			for _, batt := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/battery=%t", source, mode, batt)
				t.Run(name, func(t *testing.T) {
					base := invariantConfig(t, source, mode, batt)
					f := func(seedRaw uint16, envIdx, scIdx uint8) bool {
						cfg := base
						cfg.Data = scenarios[int(scIdx)%len(scenarios)]
						cfg.Env = envs[int(envIdx)%len(envs)]
						cfg.Seed = uint64(seedRaw)
						eng := New(cfg)
						p := &arbitraryPolicy{s: rng.New(uint64(seedRaw) + 1)}
						acc, virtual := 0.1, 0.0
						for round := 0; round < 5; round++ {
							_, res := eng.RunRound(p, round, acc)
							err := checkRound(res, mode, cfg)
							if err == "" {
								err = checkCharge(eng, res)
							}
							if err != "" {
								t.Logf("seed %d env %s data %s round %d: %s", seedRaw, cfg.Env.Network.Name, cfg.Data.Name, round, err)
								return false
							}
							if res.VirtualSec < virtual {
								t.Logf("round %d: virtual clock went back from %v to %v", round, virtual, res.VirtualSec)
								return false
							}
							acc, virtual = res.Accuracy, res.VirtualSec
						}
						return true
					}
					if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// checkRound returns the first accounting invariant res violates, or
// "" when it satisfies them all.
func checkRound(res *RoundResult, mode AggregationMode, cfg Config) string {
	const tol = 1e-6
	if res.Accuracy < 0 || res.Accuracy > 1 {
		return fmt.Sprintf("accuracy %v outside [0, 1]", res.Accuracy)
	}
	if res.RoundSec < 0 || res.EnergyJ < 0 || res.ParticipantEnergyJ < 0 {
		return fmt.Sprintf("negative round time or energy (%v s, %v J, %v J)", res.RoundSec, res.EnergyJ, res.ParticipantEnergyJ)
	}
	selected, sum := 0, 0.0
	for _, dr := range res.Devices {
		if dr.EnergyJ < 0 || dr.UpdateFraction < 0 || dr.UpdateFraction > 1 {
			return fmt.Sprintf("device %d: energy %v J, update fraction %v", dr.Index, dr.EnergyJ, dr.UpdateFraction)
		}
		if dr.Dropped && !dr.Selected {
			return fmt.Sprintf("device %d dropped without being selected", dr.Index)
		}
		if dr.Selected {
			selected++
		}
		sum += dr.EnergyJ
	}
	if selected != res.Participants || selected > cfg.Params.K {
		return fmt.Sprintf("%d selected, %d participants, K=%d", selected, res.Participants, cfg.Params.K)
	}
	switch mode {
	case ModeSync:
		// The fleet total is fleetIdle·roundSec − participant idle +
		// participants: a different summation order from the view's,
		// so the bounds are relative. An exhaustive view holds every
		// device, so its sum is the total: idle plus participants.
		if res.ParticipantEnergyJ > res.EnergyJ*(1+tol) {
			return fmt.Sprintf("participant energy %v J exceeds fleet energy %v J", res.ParticipantEnergyJ, res.EnergyJ)
		}
		if sum > res.EnergyJ*(1+tol) {
			return fmt.Sprintf("view energy %v J exceeds fleet energy %v J", sum, res.EnergyJ)
		}
		if len(res.Devices) == cfg.Population.Len() && math.Abs(sum-res.EnergyJ) > tol*res.EnergyJ {
			return fmt.Sprintf("exhaustive view energy %v J differs from the fleet total %v J", sum, res.EnergyJ)
		}
	default:
		if res.Kept != len(res.Arrivals) {
			return fmt.Sprintf("kept %d, %d arrivals", res.Kept, len(res.Arrivals))
		}
		if res.Pending > cfg.Params.K {
			return fmt.Sprintf("%d updates in flight, K=%d", res.Pending, cfg.Params.K)
		}
		if res.MeanStaleness < 0 || res.MeanStaleness > float64(res.MaxStaleness) {
			return fmt.Sprintf("mean staleness %v outside [0, %d]", res.MeanStaleness, res.MaxStaleness)
		}
		for _, ar := range res.Arrivals {
			if ar.Weight <= 0 || ar.Weight > 1 {
				return fmt.Sprintf("device %d: staleness weight %v outside (0, 1]", ar.Index, ar.Weight)
			}
		}
	}
	if cfg.Battery != nil {
		if res.BatteryMeanCharge < 0 || res.BatteryMeanCharge > 1 {
			return fmt.Sprintf("mean charge %v outside [0, 1]", res.BatteryMeanCharge)
		}
		// Jain is 0 before any participation, and otherwise at least
		// 1/N (one device took every slot) and at most 1.
		lo := 1 / float64(cfg.Population.Len()) * (1 - 1e-9)
		if j := res.ParticipationJain; j != 0 && (j < lo || j > 1) {
			return fmt.Sprintf("Jain index %v neither 0 nor in [%v, 1]", j, lo)
		}
	}
	return ""
}

// checkCharge returns the first view-row device whose state of charge
// left [0, 1] after the round, or "" when every one is in bounds (or
// the run has no battery). checkRound sees only the round's result and
// so bounds only the mean; this reads the engine's per-device charge.
func checkCharge(eng *Engine, res *RoundResult) string {
	if eng.batt == nil {
		return ""
	}
	for _, dr := range res.Devices {
		if f := eng.batt.model.Frac(dr.Index); f < 0 || f > 1 {
			return fmt.Sprintf("device %d: charge fraction %v outside [0, 1]", dr.Index, f)
		}
	}
	return ""
}

// Property: convergence-model accuracy is invariant to device energy
// accounting — two configs differing only in straggler factor beyond
// any drop threshold yield identical accuracy traces.
func TestAccuracyIndependentOfGenerousDeadlines(t *testing.T) {
	run := func(factor float64) []float64 {
		cfg := Config{
			Workload:        workload.CNNMNIST(),
			Params:          workload.GlobalParams{B: 16, E: 5, K: 10},
			Population:      testPopulation(t, 3, 7, 10),
			Data:            data.IdealIID,
			Env:             EnvIdeal(),
			Seed:            77,
			MaxRounds:       30,
			StragglerFactor: factor,
		}
		p := &arbitraryPolicy{s: rng.New(5)}
		return New(cfg).Run(p).Trace.Accuracy
	}
	// Both factors are generous enough that nobody drops in the ideal
	// environment, so the learning trajectory must match exactly.
	a, b := run(50), run(500)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("accuracy depends on a non-binding deadline at round %d", i)
		}
	}
}
