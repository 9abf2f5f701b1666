package sweep_test

// The golden-file determinism suite: a small reference grid's sorted
// JSON is committed under testdata/, and serial, parallel, cold-cache,
// warm-cache (resumed), cost-scheduled, and distributed (loopback
// workers, with and without a mid-grid worker death) runs must all
// reproduce it byte for byte. Any engine, store, cache, scheduler, or
// wire-protocol change that perturbs output — float formatting, sort
// order, seed derivation, cache or JSON round-tripping — fails here
// first. Regenerate deliberately with:
//
//	go test ./internal/sweep/ -run TestGolden -update-golden

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"autofl/internal/rng"
	"autofl/internal/sim"
	"autofl/internal/sweep"
	"autofl/internal/sweep/cache"
	"autofl/internal/sweep/dist"
	"autofl/internal/sweep/schedule"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

const goldenPath = "testdata/golden_sweep.json"

// goldenGrid is the committed reference grid: 24 cells across two
// workloads so the cost scheduler has real work to reorder.
func goldenGrid() sweep.Grid {
	return sweep.Grid{
		Workloads:  []string{"CNN-MNIST", "MobileNet-ImageNet"},
		Settings:   []string{"S3"},
		Data:       []string{"iid", "noniid50"},
		Envs:       []string{"field"},
		Policies:   []string{"FedAvg-Random", "AutoFL", "Power"},
		Replicates: 2,
		Seed:       1234,
	}
}

// goldenRunner is a pure function of the derived cell seed, so the
// committed bytes are stable across machines and parallelism.
func goldenRunner(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
	s := rng.New(seed)
	return sweep.Outcome{
		Converged:       s.Bool(0.7),
		Rounds:          1 + s.IntN(500),
		TimeToTargetSec: 1000 * s.Float64(),
		EnergyToTargetJ: 1e6 * s.Float64(),
		GlobalPPW:       s.Float64(),
		LocalPPW:        s.Float64(),
		FinalAccuracy:   s.Float64(),
	}, nil
}

// withFlatTrace attaches a valid trace of the given length to the
// runner's outcomes: the cache stores only traced runs, and a flat
// trace of the signature's horizon makes each entry answer exactly
// that horizon with the runner's own scalars.
func withFlatTrace(run sweep.Runner, rounds int) sweep.Runner {
	return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		out, err := run(ctx, c, seed)
		z := make([]float64, rounds)
		out.Trace = &sweep.RunTrace{V: sweep.TraceVersion, Trace: sim.Trace{Sec: z, EnergyJ: z, ParticipantEnergyJ: z, Accuracy: z}}
		return out, err
	}
}

func runJSON(t *testing.T, g sweep.Grid, run sweep.Runner, opts sweep.Options) []byte {
	t.Helper()
	store, err := sweep.Run(context.Background(), g, run, opts)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != g.Size() {
		t.Fatalf("ran %d of %d cells", store.Len(), g.Size())
	}
	var b bytes.Buffer
	if err := store.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestGoldenDeterminism(t *testing.T) {
	g := goldenGrid()
	sig := cache.Signature{GridSeed: g.Seed, Rounds: 100}
	serial := runJSON(t, g, goldenRunner, sweep.Options{Parallel: 1})

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, serial, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}

	check := func(name string, got []byte) {
		if !bytes.Equal(got, golden) {
			t.Errorf("%s run diverged from %s (regenerate only if the change is intended)", name, goldenPath)
		}
	}
	check("serial", serial)
	check("parallel", runJSON(t, g, goldenRunner, sweep.Options{Parallel: 8}))

	cells := g.Cells()
	order := schedule.Order(len(cells), func(i int) float64 {
		return schedule.Static().Predict(cells[i].Workload, sig.Rounds)
	})
	check("cost-scheduled", runJSON(t, g, goldenRunner, sweep.Options{Parallel: 8, Order: order}))

	dir := t.TempDir()
	cold, err := cache.Open(dir, sig)
	if err != nil {
		t.Fatal(err)
	}
	check("cold-cache", runJSON(t, g, cold.Runner(withFlatTrace(goldenRunner, sig.Rounds)), sweep.Options{Parallel: 8}))
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := cache.Open(dir, sig)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	noRun := func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		t.Errorf("warm-cache run executed cell %s", c.Key())
		return goldenRunner(ctx, c, seed)
	}
	check("warm-cache", runJSON(t, g, warm.Runner(noRun), sweep.Options{Parallel: 8}))

	// And warm-cache under the cost schedule with cached cells priced
	// at zero — the full resume configuration of cmd/autofl-sweep.
	resumeOrder := schedule.Order(len(cells), func(i int) float64 {
		if warm.Has(cells[i]) {
			return 0
		}
		return schedule.Static().Predict(cells[i].Workload, sig.Rounds)
	})
	check("warm-cache-scheduled", runJSON(t, g, warm.Runner(goldenRunner), sweep.Options{Parallel: 8, Order: resumeOrder}))

	// Distributed: a loopback coordinator farming the grid to two
	// in-process workers must reproduce the same bytes, with every
	// cell executed remotely — the local runner is a tripwire.
	noLocal := func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		t.Errorf("distributed run executed cell %s locally", c.Key())
		return sweep.Outcome{}, errors.New("local execution in distributed mode")
	}
	runners := func(rounds int, traced bool) sweep.Runner { return goldenRunner }
	w1 := startGoldenWorker(t, runners)
	w2 := startGoldenWorker(t, runners)
	re := &dist.PoolExecutor{Source: dist.Dial([]string{w1.Addr(), w2.Addr()}, dist.LinkOptions{}), Rounds: sig.Rounds}
	check("distributed", runJSON(t, g, noLocal, sweep.Options{Executor: re}))

	// Distributed with a worker death mid-grid: the dying worker's
	// claimed cells are re-queued to the survivor (at-least-once,
	// idempotent by cell identity) and the output is still identical.
	var w3 *dist.Worker
	var executed int32
	dying := func(rounds int, traced bool) sweep.Runner {
		return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			if atomic.AddInt32(&executed, 1) == 4 {
				go w3.Close()
			}
			return goldenRunner(ctx, c, seed)
		}
	}
	w3 = startGoldenWorker(t, dying)
	reDeath := &dist.PoolExecutor{Source: dist.Dial([]string{w1.Addr(), w3.Addr()}, dist.LinkOptions{}), Rounds: sig.Rounds}
	check("distributed-worker-death", runJSON(t, g, noLocal, sweep.Options{Executor: reDeath}))
}

// startGoldenWorker runs a loopback dist.Worker for the distributed
// golden checks.
func startGoldenWorker(t *testing.T, runners dist.RunnerFor) *dist.Worker {
	t.Helper()
	w, err := dist.NewWorker("127.0.0.1:0", 2, runners)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	t.Cleanup(func() { w.Close() })
	return w
}
