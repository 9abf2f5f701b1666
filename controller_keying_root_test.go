package autofl

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// keyingFingerprints pins the AutoFL controller's two agent-keying
// modes: Q-tables keyed by performance category (SharedTables) over the
// four environments on the paper's 200-device fleet, and per-device
// tables on sampled populations whose device IDs far exceed the
// candidate view. Each value is "rounds|converged|accuracy|energy|time|
// rewards" (floats at full %.17g precision, rewards an FNV-1a hash of
// the reward trace's bits) for CNN-MNIST/S3/noniid50 at seed 9 over 30
// rounds. The values were captured before the controller's agent store
// moved from maps to an indexed slice, and must hold exactly; the
// shared/* entries were re-captured once when the 200-device fleet
// moved onto the population engine's keyed draws.
var keyingFingerprints = map[string]string{
	"shared/ideal":        "30|false|0.3453037296955031|42902.52989143422|1228.9179753791159|d64112f06c3a926c",
	"shared/interference": "30|false|0.36538938661007619|46808.509035023962|1504.0862264646616|c0972690749f51f1",
	"shared/weak-network": "30|false|0.34410290605890148|60368.744217463849|1826.6828344708342|f054ff57833a29a2",
	"shared/field":        "30|false|0.3483559107376144|48855.0530145718|1555.1100996922114|1639d9eddc89fe19",
	"population/device":   "30|false|0.37504260262679545|4898203.6986850118|1616.1581878160287|24701f0026359f33",
	"population/shared":   "30|false|0.31213216572747171|4552519.8993187938|1500.887415242893|5790be37e24f89b6",
}

func keyingFingerprint(t *testing.T, s Scenario) string {
	t.Helper()
	r, err := s.Run(PolicyAutoFL)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r.RewardTrace {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%d|%t|%.17g|%.17g|%.17g|%016x",
		r.Rounds, r.Converged, r.FinalAccuracy, r.EnergyToTargetJ, r.TimeToTargetSec, h.Sum64())
}

func checkKeyingFingerprint(t *testing.T, key string, s Scenario) {
	t.Helper()
	got := keyingFingerprint(t, s)
	if want := keyingFingerprints[key]; got != want {
		t.Errorf("%s: AutoFL run drifted from the pinned fingerprint\n got %s\nwant %s", key, got, want)
	}
}

// TestAutoFLSharedTablesPinned pins category-keyed Q-tables.
func TestAutoFLSharedTablesPinned(t *testing.T) {
	for _, env := range Environments() {
		checkKeyingFingerprint(t, "shared/"+string(env), Scenario{
			Workload:  CNNMNIST,
			Setting:   S3,
			Data:      NonIID50,
			Env:       env,
			Seed:      9,
			MaxRounds: 30,
			AutoFL:    &AutoFLOptions{SharedTables: true},
		})
	}
}

// TestAutoFLPopulationPinned pins both keying modes on a sampled
// 100k-device population: each round sees 1,024 candidates whose
// device IDs range over the whole population, so per-device agents are
// created for IDs far beyond the view size.
func TestAutoFLPopulationPinned(t *testing.T) {
	for _, shared := range []bool{false, true} {
		key := "population/device"
		if shared {
			key = "population/shared"
		}
		checkKeyingFingerprint(t, key, Scenario{
			Workload:  CNNMNIST,
			Setting:   S3,
			Data:      NonIID50,
			Env:       EnvField,
			Seed:      9,
			MaxRounds: 30,
			Fleet:     ScaledFleet(100_000, 1024),
			AutoFL:    &AutoFLOptions{SharedTables: shared},
		})
	}
}
