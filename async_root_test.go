package autofl

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"autofl/internal/sweep"
	"autofl/internal/sweep/dist"
)

// TestExplicitSyncAggregationMatchesDefault pins the tentpole's
// compatibility bar at the public API: an explicit synchronous
// AggregationSpec routes every round through the virtual-time event
// queue, yet reproduces the pre-refactor default path field for field —
// across every variance environment and every policy.
func TestExplicitSyncAggregationMatchesDefault(t *testing.T) {
	for _, env := range Environments() {
		for _, pol := range Policies() {
			base := Scenario{
				Workload:  CNNMNIST,
				Setting:   S3,
				Data:      NonIID50,
				Env:       env,
				Seed:      9,
				MaxRounds: 30,
			}
			explicit := base
			explicit.Aggregation = &AggregationSpec{Mode: SyncAggregation}

			a, err := base.Run(pol)
			if err != nil {
				t.Fatalf("%s/%s default: %v", env, pol, err)
			}
			b, err := explicit.Run(pol)
			if err != nil {
				t.Fatalf("%s/%s explicit sync: %v", env, pol, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: explicit sync aggregation differs from default", env, pol)
			}
		}
	}
}

// asyncGrid is smallGrid crossed with the aggregation and population
// axes.
func asyncGrid(seed uint64) sweep.Grid {
	g := smallGrid(seed)
	g.Policies = []string{string(PolicyRandom)}
	g.Modes = []string{string(AsyncAggregation), string(SemiAsyncAggregation)}
	g.Alphas = []string{"0.5", "1"}
	g.Devices = []string{"2000"}
	g.Samples = []string{"256"}
	return g
}

// TestAsyncSweepDeterminism extends the sweep acceptance bar to the
// new axes: a parallel sweep over async/semi-async × alpha × population
// cells emits byte-identical JSON to a serial sweep, every cell runs
// clean, and the CSV carries the extension columns.
func TestAsyncSweepDeterminism(t *testing.T) {
	g := asyncGrid(42)
	const rounds = 20
	serial, err := RunSweep(context.Background(), g, rounds, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(context.Background(), g, rounds, sweep.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	var bs, bp bytes.Buffer
	if err := serial.WriteJSON(&bs); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&bp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Error("parallel async sweep JSON differs from serial at the same seed")
	}
	sawStale := false
	for _, r := range serial.Results() {
		if r.Err != "" {
			t.Errorf("cell %s failed: %s", r.Cell.Key(), r.Err)
		}
		if r.Outcome.MeanStaleness > 0 {
			sawStale = true
		}
	}
	if !sawStale {
		t.Error("no async cell reported positive mean staleness")
	}

	var csv bytes.Buffer
	if err := serial.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(csv.String(), "\n", 2)[0]
	for _, col := range []string{"mode", "alpha", "devices", "sample", "mean_staleness_mean"} {
		if !strings.Contains(header, col) {
			t.Errorf("extended CSV header missing %q: %s", col, header)
		}
	}
}

// TestAsyncDistributedSweepMatchesSerial pins placement invariance for
// the async regimes: cells farmed to loopback worker processes produce
// byte-identical output to an in-process serial run of the same grid.
func TestAsyncDistributedSweepMatchesSerial(t *testing.T) {
	g := asyncGrid(77)
	const rounds = 15
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
		t.Error("distributed async sweep JSON differs from serial")
	}
}

// TestSweepCellRejectsBadExtensionValues pins the loud-error contract
// of the extension axes: malformed values become per-cell errors, not
// silent defaults.
func TestSweepCellRejectsBadExtensionValues(t *testing.T) {
	cases := []struct {
		name string
		cell sweep.Cell
	}{
		{"bad alpha", sweep.Cell{Mode: "async", Alpha: "fast"}},
		{"NaN alpha", sweep.Cell{Mode: "async", Alpha: "NaN"}},
		{"bad devices", sweep.Cell{Devices: "many"}},
		{"sample without devices", sweep.Cell{Sample: "64"}},
		{"bad mode", sweep.Cell{Mode: "turbo"}},
	}
	run := SweepRunner(5)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.cell
			c.Workload = string(CNNMNIST)
			c.Setting = string(S3)
			c.Data = string(IdealIID)
			c.Env = string(EnvIdeal)
			c.Policy = string(PolicyRandom)
			if _, err := run(context.Background(), c, 1); err == nil {
				t.Error("malformed cell accepted")
			}
		})
	}
}
