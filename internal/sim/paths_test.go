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
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// The engine-path table spans every round body the engine has: the
// device source (the default 200-device fleet run exhaustively, or a
// sampled population), the
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
	if source == "pop" {
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
// every per-round trace, the battery summary, and the DeviceSnapshot
// of a fixed device set.
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
	"fleet/sync/none/FedAvg-Random":           "40|0.46177929013630198|80626.610014641759|de5205f5ffe8d785",
	"fleet/sync/none/FedNova":                 "40|0.51511395189844178|80626.610014641759|97ba36fc39d6a09d",
	"fleet/sync/none/FEDL":                    "40|0.51733280421300476|80626.610014641759|9bc9258e0f7ef5e5",
	"fleet/sync/none/OFL":                     "40|0.51737766740226898|44691.203861599904|357f50f69b233b31",
	"fleet/sync/none/AutoFL":                  "40|0.50853055209277265|66199.600678506744|e880c57bdc75d120",
	"fleet/sync/none/Battery-Weighted":        "40|0.45123826402364764|82338.547427241661|e385e9a5e912ba50",
	"fleet/sync/solar/FedAvg-Random":          "40|0.46177929013630198|80626.610014641759|e8ad8533bad14e43",
	"fleet/sync/solar/FedNova":                "40|0.51511395189844178|80626.610014641759|c319c00cbbbb5ec7",
	"fleet/sync/solar/FEDL":                   "40|0.51733280421300476|80626.610014641759|f9f3ea7a2395d983",
	"fleet/sync/solar/OFL":                    "40|0.51737766740226898|44580.511008625625|a90d19d865898f9f",
	"fleet/sync/solar/AutoFL":                 "40|0.49521184062695772|62652.715744708279|5a8ea7769adf0958",
	"fleet/sync/solar/Battery-Weighted":       "40|0.45049346792000605|82814.170182847636|a18a6e448b88eee5",
	"fleet/async/none/FedAvg-Random":          "40|0.13428298137173839|5694.637307495289|989d2bdb8e9c70ad",
	"fleet/async/none/FedNova":                "40|0.1436364867221612|5694.637307495289|bdeaa6a1840e43c8",
	"fleet/async/none/FEDL":                   "40|0.14429917741328513|5694.637307495289|12d1d3612adff589",
	"fleet/async/none/OFL":                    "40|0.14715820700177759|3201.931026635717|9ec8fa6dafb5b361",
	"fleet/async/none/AutoFL":                 "40|0.15088344642556764|5835.4485586266992|ea5a5112d8ab600c",
	"fleet/async/none/Battery-Weighted":       "40|0.13127430151721434|7477.6483811983589|0570b520053ba17a",
	"fleet/async/solar/FedAvg-Random":         "40|0.13428298137173839|5694.637307495289|a74f4863b8ac332f",
	"fleet/async/solar/FedNova":               "40|0.1436364867221612|5694.637307495289|e0ccba024a252d1e",
	"fleet/async/solar/FEDL":                  "40|0.14429917741328513|5694.637307495289|53181ac3b6e2b29b",
	"fleet/async/solar/OFL":                   "40|0.14715820700177759|3201.931026635717|7cbee37523b40728",
	"fleet/async/solar/AutoFL":                "40|0.15088344642556764|5835.4485586266992|859ee004a7ac9150",
	"fleet/async/solar/Battery-Weighted":      "40|0.13401119726179989|6297.0230448323846|91c640bd35df0111",
	"fleet/semi-async/none/FedAvg-Random":     "40|0.34578895149656291|47596.411316343489|0636e3412f5f3ece",
	"fleet/semi-async/none/FedNova":           "40|0.37128927873826878|47596.411316343489|ab5ed459d3515b06",
	"fleet/semi-async/none/FEDL":              "40|0.37388006917780436|47596.411316343489|76ea82d799d59f76",
	"fleet/semi-async/none/OFL":               "40|0.38028818994750069|25526.799325066051|f65d65a64c780ff2",
	"fleet/semi-async/none/AutoFL":            "40|0.38564836104890859|36570.096226932823|f7296e0d4872504a",
	"fleet/semi-async/none/Battery-Weighted":  "40|0.33219183874102853|49591.038312285127|1453d4655618f22d",
	"fleet/semi-async/solar/FedAvg-Random":    "40|0.34578895149656291|47596.411316343489|0da34ded9241d562",
	"fleet/semi-async/solar/FedNova":          "40|0.37128927873826878|47596.411316343489|ba3205f233dff9ae",
	"fleet/semi-async/solar/FEDL":             "40|0.37388006917780436|47596.411316343489|91249c5903172cbe",
	"fleet/semi-async/solar/OFL":              "40|0.38028818994750069|25526.799325066051|8ce6706c04d86e84",
	"fleet/semi-async/solar/AutoFL":           "40|0.38341886832708955|35834.00289020998|b4ad7478b3a6c87f",
	"fleet/semi-async/solar/Battery-Weighted": "40|0.33195431603738268|45483.173315984888|8a3938bbc3a41ee3",
	"pop/sync/none/FedAvg-Random":             "40|0.43898239380840343|1370399.8725208913|4034920faa7a1df7",
	"pop/sync/none/FedNova":                   "40|0.50388580265063365|1370399.8725208913|ea83f5fc78c14593",
	"pop/sync/none/FEDL":                      "40|0.5115475750662819|1370399.8725208913|ed7bd3983570c4f1",
	"pop/sync/none/OFL":                       "40|0.54022328339789905|948760.17610962549|1e2c0bfaf36ad70c",
	"pop/sync/none/AutoFL":                    "40|0.45990876446480966|1343542.1825031068|8475c6ca10a33504",
	"pop/sync/none/Battery-Weighted":          "40|0.43107353825551481|1379092.7977538942|60edbcb5d3815680",
	"pop/sync/solar/FedAvg-Random":            "40|0.43898239380840343|1370399.8725208913|062b4a3a332322cb",
	"pop/sync/solar/FedNova":                  "40|0.50388580265063365|1370399.8725208913|f4bd0886f46c028f",
	"pop/sync/solar/FEDL":                     "40|0.5115475750662819|1370399.8725208913|60d17cf3107a6c55",
	"pop/sync/solar/OFL":                      "40|0.54022328339789905|948760.17610962549|2815391d99dab448",
	"pop/sync/solar/AutoFL":                   "40|0.45990876446480966|1343542.1825031068|fb43f38b1c277507",
	"pop/sync/solar/Battery-Weighted":         "40|0.4481537033691933|1346930.5239040786|ec747051eb66db8b",
	"pop/async/none/FedAvg-Random":            "40|0.13409184317317821|55313.17995033662|15cc322b61a2f126",
	"pop/async/none/FedNova":                  "40|0.14326902027786914|55313.17995033662|e5f729c0e1729d37",
	"pop/async/none/FEDL":                     "40|0.1450129966376176|55313.17995033662|75ad6def92840684",
	"pop/async/none/OFL":                      "40|0.14551334435897753|47238.365125413227|e850b36d876d9e76",
	"pop/async/none/AutoFL":                   "40|0.15016803233273615|76041.66594541735|5134d79f28cd04f0",
	"pop/async/none/Battery-Weighted":         "40|0.12532892283758662|62274.652481628626|52d6f92e83e07afe",
	"pop/async/solar/FedAvg-Random":           "40|0.13409184317317821|55313.17995033662|14e4f90af5e48b85",
	"pop/async/solar/FedNova":                 "40|0.14326902027786914|55313.17995033662|2c07e24b30781a88",
	"pop/async/solar/FEDL":                    "40|0.1450129966376176|55313.17995033662|04706435b4bd5567",
	"pop/async/solar/OFL":                     "40|0.14551334435897753|47238.365125413227|554d16fab0a0c1a1",
	"pop/async/solar/AutoFL":                  "40|0.15016803233273615|76041.66594541735|ee1a61fac7f02af8",
	"pop/async/solar/Battery-Weighted":        "40|0.13337555040454463|54493.851803704674|32b24b417d642202",
	"pop/semi-async/none/FedAvg-Random":       "40|0.32692431606907424|680966.79557883181|6e1698a030c53fb7",
	"pop/semi-async/none/FedNova":             "40|0.36517634200388721|680966.79557883181|1a5af5f5b88a001a",
	"pop/semi-async/none/FEDL":                "40|0.37080139761559122|680966.79557883181|6e85152efb1fbe60",
	"pop/semi-async/none/OFL":                 "40|0.37433295019379792|466637.74174190551|7ecd0193608908b6",
	"pop/semi-async/none/AutoFL":              "40|0.38557130974183668|834160.98867777549|7dc39660e811c7fe",
	"pop/semi-async/none/Battery-Weighted":    "40|0.32327276831291796|672406.53308234643|b24c1d11b34e7a69",
	"pop/semi-async/solar/FedAvg-Random":      "40|0.32692431606907424|680966.79557883181|ef1d924797b0c8fb",
	"pop/semi-async/solar/FedNova":            "40|0.36517634200388721|680966.79557883181|a4ef3a2daa61431e",
	"pop/semi-async/solar/FEDL":               "40|0.37080139761559122|680966.79557883181|063c779013974df0",
	"pop/semi-async/solar/OFL":                "40|0.37433295019379792|466637.74174190551|8bc5b6a072c6d00b",
	"pop/semi-async/solar/AutoFL":             "40|0.38557130974183668|834160.98867777549|b2a14994060dbae6",
	"pop/semi-async/solar/Battery-Weighted":   "40|0.33676981577743087|673536.45355044887|bff321dc012a3bac",
}

// TestEnginePathFingerprints pins the output of every round body —
// {default fleet, sampled population} × {sync, async, semi-async} × {no
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
