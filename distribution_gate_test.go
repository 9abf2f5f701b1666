package autofl

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"autofl/internal/sweep"
)

// The distribution gate: the sweep-cold grid shape and the CNN-MNIST
// async, semi-async and solar-battery cells, each over eight
// replicate seeds on the default 200-device fleet, must reproduce the
// committed per-cell means of rounds, time and energy to target within
// distributionTolerance, and the AutoFL/FedAvg-Random energy ratio of
// every synchronous (workload, data, env) within ratioTolerance. It
// pins behaviour by distribution rather than by bytes, so an engine
// change that re-keys the per-device draws passes as long as the
// simulated fleet still behaves the same. The reference means were
// captured from the materialized-fleet engine (one sequential
// environment stream, exact non-IID counts, per-class coverage), the
// representation the population path replaced.

const (
	distributionPath      = "testdata/fleet_distribution.json"
	distributionSeed      = 20261017
	distributionSeeds     = 8
	distributionTolerance = 0.08
	ratioTolerance        = 0.05
)

// cellMeans is one replicate group's reference means.
type cellMeans struct {
	Rounds          float64 `json:"rounds"`
	TimeToTargetSec float64 `json:"time_to_target_sec"`
	EnergyToTargetJ float64 `json:"energy_to_target_j"`
}

// distributionGrids are the gate's grids: the sweep-cold shape, then
// CNN-MNIST under async and semi-async aggregation and under the
// solar-diurnal battery.
func distributionGrids() []sweep.Grid {
	sync := sweep.Grid{
		Workloads: []string{string(CNNMNIST), string(LSTMShakespeare), string(MobileNetImageNet)},
		Data:      []string{string(IdealIID), string(NonIID50)},
		Envs:      []string{string(EnvField), string(EnvInterference)},
		Policies:  []string{string(PolicyAutoFL), string(PolicyRandom)},
	}
	async := sweep.Grid{
		Workloads: []string{string(CNNMNIST)},
		Data:      sync.Data,
		Envs:      []string{string(EnvField)},
		Policies:  sync.Policies,
		Modes:     []string{string(AsyncAggregation), string(SemiAsyncAggregation)},
	}
	solar := async
	solar.Modes = nil
	solar.Batteries = []string{string(BatterySolar)}
	solar.Policies = []string{string(PolicyAutoFL), string(PolicyRandom), string(PolicyBatteryWeighted)}
	grids := []sweep.Grid{sync, async, solar}
	for i := range grids {
		grids[i].Settings = []string{string(S3)}
		grids[i].Replicates = distributionSeeds
		grids[i].Seed = distributionSeed
	}
	return grids
}

// groupKey names a replicate group by its non-empty axes.
func groupKey(s sweep.Summary) string {
	parts := []string{s.Workload, s.Data, s.Env}
	for _, v := range []string{s.Mode, s.Battery} {
		if v != "" {
			parts = append(parts, v)
		}
	}
	return strings.Join(append(parts, s.Policy), "/")
}

// measureDistribution runs every gate grid at the paper's 1000-round
// horizon and returns the per-group means.
func measureDistribution(t *testing.T) map[string]cellMeans {
	t.Helper()
	out := map[string]cellMeans{}
	for _, g := range distributionGrids() {
		store, err := RunSweep(context.Background(), g, 0, sweep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range store.Summaries() {
			if s.Errors > 0 {
				t.Fatalf("%s: %d replicate(s) failed", groupKey(s), s.Errors)
			}
			out[groupKey(s)] = cellMeans{s.Rounds.Mean, s.TimeToTargetSec.Mean, s.EnergyToTargetJ.Mean}
		}
	}
	return out
}

// energyRatios maps each synchronous (workload, data, env) to its
// AutoFL/FedAvg-Random energy-to-target ratio.
func energyRatios(means map[string]cellMeans) map[string]float64 {
	out := map[string]float64{}
	for key, m := range means {
		prefix, ok := strings.CutSuffix(key, "/"+string(PolicyAutoFL))
		if !ok || strings.Count(prefix, "/") != 2 {
			continue
		}
		if base, ok := means[prefix+"/"+string(PolicyRandom)]; ok {
			out[prefix] = m.EnergyToTargetJ / base.EnergyToTargetJ
		}
	}
	return out
}

func relDiff(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func TestFleetDistributionGate(t *testing.T) {
	raw, err := os.ReadFile(distributionPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]cellMeans
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := measureDistribution(t)
	if len(got) != len(want) {
		t.Fatalf("measured %d groups, reference has %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: group missing from the measurement", key)
			continue
		}
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"rounds", g.Rounds, w.Rounds},
			{"time_to_target_sec", g.TimeToTargetSec, w.TimeToTargetSec},
			{"energy_to_target_j", g.EnergyToTargetJ, w.EnergyToTargetJ},
		} {
			if d := relDiff(m.got, m.want); d > distributionTolerance {
				t.Errorf("%s %s mean = %.6g, reference %.6g (%.1f%% off, bound %.0f%%)",
					key, m.name, m.got, m.want, 100*d, 100*distributionTolerance)
			}
		}
	}
	wantRatios, gotRatios := energyRatios(want), energyRatios(got)
	if len(wantRatios) != 12 {
		t.Fatalf("reference has %d AutoFL/FedAvg-Random ratios, want 12", len(wantRatios))
	}
	for key, w := range wantRatios {
		if d := relDiff(gotRatios[key], w); d > ratioTolerance {
			t.Errorf("%s AutoFL/FedAvg-Random energy ratio = %.4f, reference %.4f (%.1f%% off, bound %.0f%%)",
				key, gotRatios[key], w, 100*d, 100*ratioTolerance)
		}
	}
}
