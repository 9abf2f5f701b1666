package autofl

import (
	"testing"

	"autofl/internal/sweep"
)

// The sampled-population distribution gate: a 20,000-device population
// drawing a 512-candidate pool each round, under synchronous, async and
// solar-battery regimes, IID and 50% non-IID data, over eight replicate
// seeds. Every group's means of rounds, time and energy to target must
// reproduce the committed reference within distributionTolerance. The
// default fleet's gate runs at Sample == N and never draws a candidate
// pool; this one pins the sampled path by distribution, so a change to
// how the pool is drawn passes as long as the population still behaves
// the same.

const sampledDistributionPath = "testdata/sampled_distribution.json"

// sampledDistributionGrids are the gate's grids: CNN-MNIST on the
// field environment, synchronous, async, and synchronous under the
// solar-diurnal battery (with the battery-weighted baseline).
func sampledDistributionGrids() []sweep.Grid {
	sync := sweep.Grid{
		Workloads: []string{string(CNNMNIST)},
		Settings:  []string{string(S3)},
		Data:      []string{string(IdealIID), string(NonIID50)},
		Envs:      []string{string(EnvField)},
		Policies:  []string{string(PolicyAutoFL), string(PolicyRandom)},
		Devices:   []string{"20000"},
		Samples:   []string{"512"},
		Seed:      distributionSeed,
	}
	async := sync
	async.Modes = []string{string(AsyncAggregation)}
	solar := sync
	solar.Batteries = []string{string(BatterySolar)}
	solar.Policies = []string{string(PolicyAutoFL), string(PolicyRandom), string(PolicyBatteryWeighted)}
	grids := []sweep.Grid{sync, async, solar}
	for i := range grids {
		grids[i].Replicates = distributionSeeds
	}
	return grids
}

func TestSampledDistributionGate(t *testing.T) {
	checkDistribution(t, sampledDistributionPath, sampledDistributionGrids())
}
