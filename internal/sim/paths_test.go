package sim_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"autofl/internal/battery"
	"autofl/internal/core"
	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// The engine-path table spans every round body the engine has: the
// device source (materialized fleet or sampled population), the
// aggregation regime, the battery model, and the aggregation traits
// and selection styles of the paper's policies.
var (
	pathSources  = []string{"fleet", "pop"}
	pathModes    = []sim.AggregationMode{sim.ModeSync, sim.ModeAsync, sim.ModeSemiAsync}
	pathBattery  = []string{"none", "solar"}
	pathPolicies = []string{"FedAvg-Random", "FedNova", "FEDL", "OFL", "AutoFL", "Battery-Weighted"}
)

const (
	pathRounds  = 40
	pathPopN    = 20_000
	pathSample  = 512
	pathSeed    = 9
	pathPolSeed = 5
	// pathSnapStride picks the population devices whose DeviceSnapshot
	// is hashed: every 13th index, a fixed set that includes selected
	// and never-selected devices alike.
	pathSnapStride = 13
)

// pathFanSample is the 1,024-candidate threshold from which the
// population observe pass fans out across shards (below it the pass
// stays serial), and pathFanRounds keeps the shard check short.
const (
	pathFanSample = 1024
	pathFanRounds = 20
)

func pathConfig(tb testing.TB, source string, mode sim.AggregationMode, batt string, sample, shards int) sim.Config {
	tb.Helper()
	cfg := sim.Config{
		Workload:  workload.CNNMNIST(),
		Params:    workload.S3,
		Data:      data.NonIID50,
		Env:       sim.EnvField(),
		Seed:      pathSeed,
		MaxRounds: pathRounds,
		Mode:      mode,
	}
	if source == "fleet" {
		cfg.Fleet = device.DefaultFleet()
	} else {
		cfg.Population = tieredPopulation(tb, pathPopN)
		cfg.Sample = sample
		cfg.Shards = shards
	}
	if batt == "solar" {
		cfg.Battery = &battery.Spec{CapacityJ: 2000, Harvest: battery.ProfileSolar}
	}
	return cfg
}

func pathPolicy(tb testing.TB, name string, withBattery bool) sim.Policy {
	tb.Helper()
	switch name {
	case "FedAvg-Random":
		return policy.NewRandom(pathPolSeed)
	case "FedNova":
		return policy.NewFedNova(pathPolSeed)
	case "FEDL":
		return policy.NewFEDL(pathPolSeed)
	case "OFL":
		return policy.NewOFL()
	case "Battery-Weighted":
		return policy.NewBatteryWeighted(pathPolSeed)
	case "AutoFL":
		opts := core.DefaultOptions(pathPolSeed)
		if withBattery {
			b := core.DefaultBuckets()
			b.Battery = []float64{0.25, 0.6}
			opts.Buckets = &b
		}
		return core.New(opts)
	}
	tb.Fatalf("unknown path policy %q", name)
	return nil
}

// pathFingerprint renders a run as "rounds|accuracy|energy|digest":
// the headline floats at full precision plus an FNV-64a digest of
// every per-round trace, the battery summary, and (for populations)
// the DeviceSnapshot of a fixed device set.
func pathFingerprint(eng *sim.Engine, res *sim.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	n := func(v int) { f(float64(v)) }
	// at reads an optional trace array, which is absent (all zeros)
	// for runs that do not record it.
	at := func(s []float64, i int) float64 {
		if len(s) == 0 {
			return 0
		}
		return s[i]
	}
	tr := &res.Trace
	n(tr.Rounds())
	for i := range tr.Sec {
		f(tr.Sec[i])
		f(tr.EnergyJ[i])
		f(tr.ParticipantEnergyJ[i])
		f(at(tr.Staleness, i))
		f(at(tr.Jain, i))
		f(at(tr.BatteryFrac, i))
	}
	n(len(res.Trace.Accuracy))
	for _, a := range res.Trace.Accuracy {
		f(a)
	}
	n(len(res.RewardTrace))
	for _, r := range res.RewardTrace {
		f(r)
	}
	if b := res.Battery; b != nil {
		f(b.ParticipationJain)
		f(b.MeanCharge)
		n(b.Available)
		n(b.Depleted)
	}
	for i := 0; ; i += pathSnapStride {
		step, target, energy, ok := eng.DeviceSnapshot(i)
		if !ok {
			break
		}
		n(step)
		n(int(target))
		f(energy)
	}
	return fmt.Sprintf("%d|%.17g|%.17g|%016x", res.Rounds, res.FinalAccuracy, res.EnergyToTargetJ, h.Sum64())
}

// pathFingerprints pins every engine path at full precision: each
// value is "rounds|final accuracy|fleet energy|trace digest" (see
// pathFingerprint) for the 40-round CNN-MNIST/S3/non-IID(50%)/field
// scenario at seed 9.
var pathFingerprints = map[string]string{
	"fleet/sync/none/FedAvg-Random":           "40|0.45616594998520743|80932.452771602926|6e04fd04832fa238",
	"fleet/sync/none/FedNova":                 "40|0.51001470705968999|80932.452771602926|8e1d6e0971b63c5a",
	"fleet/sync/none/FEDL":                    "40|0.51651461538557553|80932.452771602926|0018ecae242f3c6f",
	"fleet/sync/none/OFL":                     "40|0.51950257563317126|45229.923238671807|b3e02ae9e84ac4a3",
	"fleet/sync/none/AutoFL":                  "40|0.50769909333066876|65416.535441984801|4ec1dad7c63e6a6b",
	"fleet/sync/none/Battery-Weighted":        "40|0.45270502757319736|82589.32469053402|0488848edfd1b462",
	"fleet/sync/solar/FedAvg-Random":          "40|0.45616594998520743|80932.452771602926|af10271d92c2720b",
	"fleet/sync/solar/FedNova":                "40|0.51001470705968999|80932.452771602926|6c2e18637875c125",
	"fleet/sync/solar/FEDL":                   "40|0.51651461538557553|80932.452771602926|a7f6fe3a0f3e29f4",
	"fleet/sync/solar/OFL":                    "40|0.51950257563317126|45229.923238671807|6ada5438bc9a80e5",
	"fleet/sync/solar/AutoFL":                 "40|0.48813967308714673|60857.009064073194|1215a58efeb90e1b",
	"fleet/sync/solar/Battery-Weighted":       "40|0.45726613762955798|82608.837638882891|7c356523ac0aba96",
	"fleet/async/none/FedAvg-Random":          "40|0.13291750373513764|5962.8439774571098|a3bf6e2591d3c01e",
	"fleet/async/none/FedNova":                "40|0.14296963214126912|5962.8439774571098|396e2a369b27024b",
	"fleet/async/none/FEDL":                   "40|0.14456572939589779|5962.8439774571098|646d50ba49848973",
	"fleet/async/none/OFL":                    "40|0.14675781263167265|3247.6900689963836|76ffc1b61bbff8b6",
	"fleet/async/none/AutoFL":                 "40|0.14832980011420205|5148.829369989855|97a5c261a5c5f5ac",
	"fleet/async/none/Battery-Weighted":       "40|0.1293909289248249|6756.0272325496489|4ee488abc3184849",
	"fleet/async/solar/FedAvg-Random":         "40|0.13291750373513764|5962.8439774571098|7e1183e953ca83be",
	"fleet/async/solar/FedNova":               "40|0.14296963214126912|5962.8439774571098|9152d5d587d4dadb",
	"fleet/async/solar/FEDL":                  "40|0.14456572939589779|5962.8439774571098|f09db7d78b5309c7",
	"fleet/async/solar/OFL":                   "40|0.14675781263167265|3247.6900689963836|bc22c60eebe611f4",
	"fleet/async/solar/AutoFL":                "40|0.14832980011420205|5148.829369989855|2e606aa982abf9bc",
	"fleet/async/solar/Battery-Weighted":      "40|0.13213994079525723|6485.0076109018319|67471ff3a645f6f8",
	"fleet/semi-async/none/FedAvg-Random":     "40|0.33664480604201991|46953.826508802362|6c68c3b3da1a65ab",
	"fleet/semi-async/none/FedNova":           "40|0.36908655099578458|46953.826508802362|51e0cc21a31ad78e",
	"fleet/semi-async/none/FEDL":              "40|0.37314024530969159|46953.826508802362|e3f9370d4c6e4ad3",
	"fleet/semi-async/none/OFL":               "40|0.37582580986259057|25221.988833694253|7922fe5586067d3d",
	"fleet/semi-async/none/AutoFL":            "40|0.38580624205635822|36509.902938393148|3e4989b747c55144",
	"fleet/semi-async/none/Battery-Weighted":  "40|0.32557941825157577|53035.812702813106|bc642ca764453659",
	"fleet/semi-async/solar/FedAvg-Random":    "40|0.33664480604201991|46953.826508802362|baf80b623b482263",
	"fleet/semi-async/solar/FedNova":          "40|0.36908655099578458|46953.826508802362|85a411d0df1b17ba",
	"fleet/semi-async/solar/FEDL":             "40|0.37314024530969159|46953.826508802362|7edb03f9a34e73d7",
	"fleet/semi-async/solar/OFL":              "40|0.37582580986259057|25221.988833694253|1675a1fa1d7def82",
	"fleet/semi-async/solar/AutoFL":           "40|0.38562002197855333|37149.277957222024|ae91a0277d996bc2",
	"fleet/semi-async/solar/Battery-Weighted": "40|0.33806150609862123|50369.777509812186|294eed40d6c3d8f1",
	"pop/sync/none/FedAvg-Random":             "40|0.43810884231071334|1371060.6721038504|58fb1cfd4d9ad95c",
	"pop/sync/none/FedNova":                   "40|0.503405157518373|1371060.6721038504|1d23631b21b0b01b",
	"pop/sync/none/FEDL":                      "40|0.50893018264694612|1371060.6721038504|d00e3f8a20a3a1f2",
	"pop/sync/none/OFL":                       "40|0.53537420709802908|954272.22437539918|eccffa9f5c0ebf89",
	"pop/sync/none/AutoFL":                    "40|0.47325900828334522|1319815.8933442137|e6a4828f4132aa6b",
	"pop/sync/none/Battery-Weighted":          "40|0.45663168755093259|1362783.2945180635|1549e9a6c5fcfeed",
	"pop/sync/solar/FedAvg-Random":            "40|0.43810884231071334|1371060.6721038504|147467beed4d3192",
	"pop/sync/solar/FedNova":                  "40|0.503405157518373|1371060.6721038504|bbe1ca206b8e5f45",
	"pop/sync/solar/FEDL":                     "40|0.50893018264694612|1371060.6721038504|a407bdc1733a155c",
	"pop/sync/solar/OFL":                      "40|0.53537420709802908|954272.22437539918|4f6df72769c94174",
	"pop/sync/solar/AutoFL":                   "40|0.47325900828334522|1319815.8933442137|efabe8b7569ecb93",
	"pop/sync/solar/Battery-Weighted":         "40|0.43973371836519293|1363837.8066542062|7dbe3e3f875c18b6",
	"pop/async/none/FedAvg-Random":            "40|0.13519417924340107|54711.215964641175|156a0513eb9ef8ed",
	"pop/async/none/FedNova":                  "40|0.14376736133025284|54711.215964641175|40fac92f0effb93a",
	"pop/async/none/FEDL":                     "40|0.14492273955253723|54711.215964641175|eb7eb2fd0ca949e4",
	"pop/async/none/OFL":                      "40|0.14526655777870093|46447.4257154835|5395217f64f972d2",
	"pop/async/none/AutoFL":                   "40|0.14846456972801944|83885.10437838205|1a6c41e7b6215098",
	"pop/async/none/Battery-Weighted":         "40|0.13136301118639121|62824.428551020304|0c627d8ed25c71ce",
	"pop/async/solar/FedAvg-Random":           "40|0.13519417924340107|54711.215964641175|18e842cff6c98f72",
	"pop/async/solar/FedNova":                 "40|0.14376736133025284|54711.215964641175|952791d3544298fd",
	"pop/async/solar/FEDL":                    "40|0.14492273955253723|54711.215964641175|b0c8b958f46a476f",
	"pop/async/solar/OFL":                     "40|0.14526655777870093|46447.4257154835|7546bc00436fa923",
	"pop/async/solar/AutoFL":                  "40|0.14846456972801944|83885.10437838205|eea327051bb312b3",
	"pop/async/solar/Battery-Weighted":        "40|0.13209611731113571|59420.987964342297|cc6f25429eba2fae",
	"pop/semi-async/none/FedAvg-Random":       "40|0.3250240436082556|677029.73555096274|44a7a64ee60f0ec6",
	"pop/semi-async/none/FedNova":             "40|0.36474814951936885|677029.73555096274|94d49b4905e62a3a",
	"pop/semi-async/none/FEDL":                "40|0.36882449805297507|677029.73555096274|569fc2de6def3bde",
	"pop/semi-async/none/OFL":                 "40|0.37386085245900241|457480.03576148342|d7a78e5075842afb",
	"pop/semi-async/none/AutoFL":              "40|0.38715008726926448|802941.83413628291|858501f79c2f2858",
	"pop/semi-async/none/Battery-Weighted":    "40|0.34399086322764366|652652.27686295169|80083a6ffe535cab",
	"pop/semi-async/solar/FedAvg-Random":      "40|0.3250240436082556|677029.73555096274|082dc6394e62cc73",
	"pop/semi-async/solar/FedNova":            "40|0.36474814951936885|677029.73555096274|8d24cb1af93a8c77",
	"pop/semi-async/solar/FEDL":               "40|0.36882449805297507|677029.73555096274|d8a68dffea96be93",
	"pop/semi-async/solar/OFL":                "40|0.37386085245900241|457480.03576148342|eed433940cc450de",
	"pop/semi-async/solar/AutoFL":             "40|0.38715008726926448|802941.83413628291|eac813cbccecfd17",
	"pop/semi-async/solar/Battery-Weighted":   "40|0.33069254802326403|690151.71040182398|dd8d2074cb3ca134",
}

// TestEnginePathFingerprints pins the output of every round body —
// {fleet, sampled population} × {sync, async, semi-async} × {no
// battery, solar battery} × six policies — byte for byte.
func TestEnginePathFingerprints(t *testing.T) {
	for _, source := range pathSources {
		for _, mode := range pathModes {
			for _, batt := range pathBattery {
				for _, pol := range pathPolicies {
					key := fmt.Sprintf("%s/%s/%s/%s", source, mode, batt, pol)
					eng := mustEngine(t, pathConfig(t, source, mode, batt, pathSample, 1))
					got := pathFingerprint(eng, eng.Run(pathPolicy(t, pol, batt != "none")))
					switch want, ok := pathFingerprints[key]; {
					case !ok:
						t.Errorf("no pinned fingerprint; capture:\n\t%q: %q,", key, got)
					case got != want:
						t.Errorf("%s drifted\n got %s\nwant %s", key, got, want)
					}
				}
			}
		}
	}
}

// TestEnginePathFingerprintsAcrossShards checks that every population
// path is independent of how the observe pass is partitioned: with a
// candidate pool above the serial threshold, the default shard count
// (which follows GOMAXPROCS) and Shards 2 and 8 each reproduce the
// serial run's fingerprint.
func TestEnginePathFingerprintsAcrossShards(t *testing.T) {
	for _, mode := range pathModes {
		for _, batt := range pathBattery {
			for _, pol := range pathPolicies {
				key := fmt.Sprintf("pop/%s/%s/%s", mode, batt, pol)
				run := func(shards int) string {
					cfg := pathConfig(t, "pop", mode, batt, pathFanSample, shards)
					cfg.MaxRounds = pathFanRounds
					eng := mustEngine(t, cfg)
					return pathFingerprint(eng, eng.Run(pathPolicy(t, pol, batt != "none")))
				}
				serial := run(1)
				for _, shards := range []int{0, 2, 8} {
					if got := run(shards); got != serial {
						t.Errorf("%s: Shards=%d gives %s, serial %s", key, shards, got, serial)
					}
				}
			}
		}
	}
}
