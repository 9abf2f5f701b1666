package autofl

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"autofl/internal/sweep"
	"autofl/internal/sweep/dist"
)

// seedFingerprints pins battery-disabled behavior: each value is
// "rounds|converged|accuracy|energy|time" (floats at full %.17g
// precision) for the CNN-MNIST/S3/noniid50 scenario at seed 9 over 30
// rounds on the default 200-device fleet. The values were first
// captured before the battery subsystem existed and re-captured once
// when the fleet moved onto the population engine's keyed draws. The
// battery seed is derived by keyed hashing rather than stream draws,
// so these must hold exactly.
var seedFingerprints = map[string]string{
	"ideal" + "/" + "FedAvg-Random":        "30|false|0.40633420024396527|43737.515816126615|959.02820258098222",
	"ideal" + "/" + "Performance":          "30|false|0.43437180492038491|43386.174633802053|607.89622183293045",
	"ideal" + "/" + "Power":                "30|false|0.40489370348634196|43401.622638457171|1013.7949294235427",
	"ideal" + "/" + "Oparticipant":         "30|false|0.43716818278835468|36704.271339559491|815.91569135468137",
	"ideal" + "/" + "OFL":                  "30|false|0.43716818278835468|27379.17284930441|1228.6120894814358",
	"ideal" + "/" + "AutoFL":               "30|false|0.42439825956014393|42361.296635493876|1411.5846110782522",
	"ideal" + "/" + "FedNova":              "30|false|0.43863657489744856|43737.515816126615|959.02820258098222",
	"ideal" + "/" + "FEDL":                 "30|false|0.4424016307793372|43737.515816126615|959.02820258098222",
	"interference" + "/" + "FedAvg-Random": "30|false|0.3827218646352763|58938.166415558866|1527.6033284521811",
	"interference" + "/" + "Performance":   "30|false|0.43437180492038491|52302.858394121627|882.50493222525995",
	"interference" + "/" + "Power":         "30|false|0.37273069711706613|59359.287692805061|1729.6059419199025",
	"interference" + "/" + "Oparticipant":  "30|false|0.44776946405324419|45652.43125820077|1067.8795633175027",
	"interference" + "/" + "OFL":           "30|false|0.43569038292105428|32347.77211197525|1227.269405760273",
	"interference" + "/" + "AutoFL":        "30|false|0.39678474104216732|48167.370617041735|1393.5603510933317",
	"interference" + "/" + "FedNova":       "30|false|0.42876044425022242|58938.166415558866|1527.6033284521811",
	"interference" + "/" + "FEDL":          "30|false|0.43218973461417998|58938.166415558866|1527.6033284521811",
	"weak-network" + "/" + "FedAvg-Random": "30|false|0.40347569049802551|61169.514620265611|1696.9418047943282",
	"weak-network" + "/" + "Performance":   "30|false|0.42445856660966835|59583.047805542985|1325.5470676079842",
	"weak-network" + "/" + "Power":         "30|false|0.40439039276340361|60914.082299476642|1785.5707544978993",
	"weak-network" + "/" + "Oparticipant":  "30|false|0.45242604506757078|47281.38792402394|916.34706338073158",
	"weak-network" + "/" + "OFL":           "30|false|0.45242604506757078|37912.90427591106|1365.801462483983",
	"weak-network" + "/" + "AutoFL":        "30|false|0.41210324470263349|58042.93578435482|1854.3367011006922",
	"weak-network" + "/" + "FedNova":       "30|false|0.43851089916824709|61169.514620265611|1696.9418047943282",
	"weak-network" + "/" + "FEDL":          "30|false|0.44226912456516704|61169.514620265611|1696.9418047943282",
	"field" + "/" + "FedAvg-Random":        "30|false|0.38315945827955633|61656.12962849778|1604.3165976512128",
	"field" + "/" + "Performance":          "30|false|0.4334452438893876|54602.11091107635|963.83581232886081",
	"field" + "/" + "Power":                "30|false|0.37273069711706613|61833.63056668733|1798.3981834457159",
	"field" + "/" + "Oparticipant":         "30|false|0.44588044773202917|47679.656798559365|1179.916139811995",
	"field" + "/" + "OFL":                  "30|false|0.43386727423428512|33565.421662000495|1312.8039990421371",
	"field" + "/" + "AutoFL":               "30|false|0.39934612372415723|50677.983080723403|1451.9832091956969",
	"field" + "/" + "FedNova":              "30|false|0.42925382138631618|61656.12962849778|1604.3165976512128",
	"field" + "/" + "FEDL":                 "30|false|0.43269380100367288|61656.12962849778|1604.3165976512128",
}

// TestBatteryDisabledPinnedToSeed is the compatibility pin of the
// battery subsystem: with Scenario.Battery nil, every environment ×
// policy combination reproduces the pre-battery engine bit for bit.
// Any stream draw, state-space change, or selection reordering the
// battery wiring leaks into disabled runs breaks this table.
func TestBatteryDisabledPinnedToSeed(t *testing.T) {
	for _, env := range Environments() {
		for _, pol := range Policies() {
			s := Scenario{
				Workload:  CNNMNIST,
				Setting:   S3,
				Data:      NonIID50,
				Env:       env,
				Seed:      9,
				MaxRounds: 30,
			}
			r, err := s.Run(pol)
			if err != nil {
				t.Fatalf("%s/%s: %v", env, pol, err)
			}
			if r.Battery != nil {
				t.Errorf("%s/%s: battery-disabled run carries a battery report", env, pol)
			}
			got := fmt.Sprintf("%d|%t|%.17g|%.17g|%.17g",
				r.Rounds, r.Converged, r.FinalAccuracy, r.EnergyToTargetJ, r.TimeToTargetSec)
			key := string(env) + "/" + string(pol)
			want, ok := seedFingerprints[key]
			if !ok {
				t.Errorf("%s: no pinned fingerprint (new policy? capture one from a battery-disabled build)", key)
				continue
			}
			if got != want {
				t.Errorf("%s: battery-disabled run drifted from the pre-battery seed\n got %s\nwant %s", key, got, want)
			}
		}
	}
}

// TestBatteryShardInvariance pins shard-count independence for
// battery-enabled sampled populations: the packed engine's battery
// settle pass runs inside the parallel observe pass, and its results
// must not depend on how candidates are partitioned across shards.
// The 2,048-candidate pool is above the fan-out threshold, so every
// GOMAXPROCS above 1 really observes in parallel.
func TestBatteryShardInvariance(t *testing.T) {
	run := func(procs int, profile BatteryProfile) *Report {
		s := Scenario{
			Workload:  CNNMNIST,
			Setting:   S3,
			Data:      NonIID50,
			Env:       EnvField,
			Seed:      11,
			MaxRounds: 25,
			Fleet:     ScaledFleet(20_000, 2048),
			Battery:   DefaultBattery(profile),
		}
		var r *Report
		var err error
		withProcs(procs, func() { r, err = s.Run(PolicyBatteryWeighted) })
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d profile=%s: %v", procs, profile, err)
		}
		return r
	}
	for _, profile := range BatteryProfiles() {
		base := run(1, profile)
		if base.Battery == nil {
			t.Fatalf("profile %s: battery-enabled run missing battery report", profile)
		}
		for _, procs := range []int{2, 4, 7} {
			if got := run(procs, profile); !reflect.DeepEqual(base, got) {
				t.Errorf("profile %s: GOMAXPROCS=%d report differs from GOMAXPROCS=1", profile, procs)
			}
		}
	}
}

// batteryGrid crosses a small scenario slice with the battery axis and
// a battery-aware baseline on the policy axis.
func batteryGrid(seed uint64) sweep.Grid {
	return sweep.Grid{
		Workloads:  []string{string(CNNMNIST)},
		Settings:   []string{string(S3)},
		Data:       []string{string(IdealIID)},
		Envs:       []string{string(EnvField)},
		Policies:   []string{string(PolicyRandom), string(PolicyBatteryWeighted)},
		Batteries:  []string{string(BatteryNone), string(BatteryCharger)},
		Replicates: 2,
		Seed:       seed,
	}
}

// TestBatterySweepDistributedMatchesSerial pins placement invariance
// for the battery axis: a battery × policy grid farmed to loopback
// worker processes emits byte-identical JSON to an in-process serial
// sweep, and the CSV carries the battery column group.
func TestBatterySweepDistributedMatchesSerial(t *testing.T) {
	g := batteryGrid(101)
	const rounds = 20
	ctx := context.Background()

	serial, err := RunSweep(ctx, g, rounds, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	newWorker := func() *dist.Worker {
		w, werr := dist.NewWorker("127.0.0.1:0", 2, SweepRunners)
		if werr != nil {
			t.Fatal(werr)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		return w
	}
	w1, w2 := newWorker(), newWorker()

	distStore, err := RunSweepWith(ctx, g, SweepOptions{
		MaxRounds: rounds,
		Workers:   []string{w1.Addr(), w2.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range distStore.Results() {
		if r.Err != "" {
			t.Errorf("cell %s errored: %s", r.Cell.Key(), r.Err)
		}
	}

	var sj, dj bytes.Buffer
	if err := serial.WriteJSON(&sj); err != nil {
		t.Fatal(err)
	}
	if err := distStore.WriteJSON(&dj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), dj.Bytes()) {
		t.Error("distributed battery sweep JSON differs from serial")
	}

	var csv bytes.Buffer
	if err := serial.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(csv.String(), "\n", 2)[0]
	for _, col := range []string{"battery", "participation_jain_mean", "battery_mean_frac_mean"} {
		if !strings.Contains(header, col) {
			t.Errorf("battery CSV header missing %q: %s", col, header)
		}
	}
}

// TestBatteryWeightedRaisesJain is the subsystem's headline smoke: on
// an energy-constrained pure-battery deployment, charge-weighted
// selection shifts early load onto charge-rich devices, keeps the
// charge-poor alive and participating deeper into the run, and so
// spreads cumulative participation measurably more fairly than uniform
// random selection. The effect is a mid-horizon one — it builds while
// devices are depleting and washes out once the whole fleet has
// exhausted its energy — so the smoke runs 90 rounds against the
// small-cell preset, where the margin is ~0.03 across seeds.
func TestBatteryWeightedRaisesJain(t *testing.T) {
	g := sweep.Grid{
		Workloads:  []string{string(CNNMNIST)},
		Settings:   []string{string(S3)},
		Data:       []string{string(IdealIID)},
		Envs:       []string{string(EnvField)},
		Policies:   []string{string(PolicyRandom), string(PolicyBatteryWeighted)},
		Batteries:  []string{string(BatteryNone)},
		Replicates: 3,
		Seed:       7,
	}
	store, err := RunSweep(context.Background(), g, 90, sweep.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	jain := map[string]float64{}
	for _, s := range store.Summaries() {
		if s.Errors > 0 {
			t.Fatalf("policy %s: %d errored replicates", s.Policy, s.Errors)
		}
		if s.ParticipationJain == nil {
			t.Fatalf("policy %s: no participation_jain summary", s.Policy)
		}
		jain[s.Policy] = s.ParticipationJain.Mean
	}
	r, okR := jain[string(PolicyRandom)]
	b, okB := jain[string(PolicyBatteryWeighted)]
	if !okR || !okB {
		t.Fatalf("missing policy summaries: %v", jain)
	}
	// "Measurably": a full point of Jain margin, not float noise.
	if b < r+0.01 {
		t.Errorf("Battery-Weighted Jain %.4f does not measurably beat FedAvg-Random %.4f", b, r)
	}
}
