package autofl

import (
	"bytes"
	"context"
	"testing"

	"autofl/internal/sweep"
	"autofl/internal/sweep/cache"
	"autofl/internal/sweep/dist"
)

// smallGrid is a fast slice of the evaluation grid for end-to-end
// tests: 2 envs × 2 policies on CNN-MNIST/S3/IID.
func smallGrid(seed uint64) sweep.Grid {
	return sweep.Grid{
		Workloads: []string{string(CNNMNIST)},
		Settings:  []string{string(S3)},
		Data:      []string{string(IdealIID)},
		Envs:      []string{string(EnvIdeal), string(EnvField)},
		Policies:  []string{string(PolicyRandom), string(PolicyPerformance)},
		Seed:      seed,
	}
}

// TestRunSweepDeterminism checks the acceptance bar end to end: a
// parallel sweep over real Scenario runs emits byte-identical sorted
// JSON to a -parallel=1 sweep at the same grid seed.
func TestRunSweepDeterminism(t *testing.T) {
	g := smallGrid(42)
	const rounds = 25
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
		t.Error("parallel sweep JSON differs from serial at the same seed")
	}
	for _, r := range serial.Results() {
		if r.Err != "" {
			t.Errorf("cell %s failed: %s", r.Cell.Key(), r.Err)
		}
		if r.Outcome.Rounds == 0 {
			t.Errorf("cell %s ran no rounds", r.Cell.Key())
		}
	}
}

// TestRunSweepWithCacheAndSchedule is the acceptance criterion end to
// end on real Scenario runs: a finished-grid rerun against its cache
// executes zero cells and emits byte-identical JSON/CSV to the cold
// run, and extending the grid by one axis value executes only the new
// cells — all under the cost scheduler.
func TestRunSweepWithCacheAndSchedule(t *testing.T) {
	g := smallGrid(42)
	const rounds = 25
	dir := t.TempDir()
	ctx := context.Background()

	cold, err := cache.Open(dir, SweepSignature(g, rounds))
	if err != nil {
		t.Fatal(err)
	}
	coldStore, err := RunSweepWith(ctx, g, SweepOptions{
		MaxRounds: rounds, Cache: cold, CostSchedule: true,
		Options: sweep.Options{Parallel: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != g.Size() {
		t.Fatalf("cold stats = %+v, want %d misses", st, g.Size())
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := cache.Open(dir, SweepSignature(g, rounds))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warmStore, err := RunSweepWith(ctx, g, SweepOptions{
		MaxRounds: rounds, Cache: warm, CostSchedule: true,
		Options: sweep.Options{Parallel: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Hits != g.Size() || st.Misses != 0 {
		t.Fatalf("warm rerun executed cells: stats = %+v", st)
	}
	var cj, wj, cc, wc bytes.Buffer
	if err := coldStore.WriteJSON(&cj); err != nil {
		t.Fatal(err)
	}
	if err := warmStore.WriteJSON(&wj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cj.Bytes(), wj.Bytes()) {
		t.Error("warm JSON differs from cold JSON")
	}
	if err := coldStore.WriteCSV(&cc); err != nil {
		t.Fatal(err)
	}
	if err := warmStore.WriteCSV(&wc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cc.Bytes(), wc.Bytes()) {
		t.Error("warm CSV differs from cold CSV")
	}

	// Extend the policy axis by one value: only the new cells execute.
	ext := g
	ext.Policies = append(append([]string{}, g.Policies...), string(PolicyPower))
	extStore, err := RunSweepWith(ctx, ext, SweepOptions{
		MaxRounds: rounds, Cache: warm, CostSchedule: true,
		Options: sweep.Options{Parallel: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantNew := ext.Size() - g.Size()
	if st := warm.Stats(); st.Misses != wantNew {
		t.Errorf("extension executed %d cells, want %d", st.Misses, wantNew)
	}
	if extStore.Len() != ext.Size() {
		t.Errorf("extension stored %d of %d cells", extStore.Len(), ext.Size())
	}

	// The extended cached output equals a cache-free serial run.
	fresh, err := RunSweep(ctx, ext, rounds, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ej, fj bytes.Buffer
	if err := extStore.WriteJSON(&ej); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteJSON(&fj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ej.Bytes(), fj.Bytes()) {
		t.Error("extended cached JSON differs from a cache-free serial run")
	}
}

// TestDistributedSweepMatchesSerial is the distributed acceptance
// criterion end to end on real Scenario runs: a loopback coordinator
// farming a non-trivial grid slice to two worker processes executes
// every cell remotely (RunSweepWith's guard runner turns any local
// execution into an errored cell, which the byte comparison would
// expose), commits every result into the shared cache by digest, and
// emits JSON/CSV byte-identical to a cold serial run of the same grid
// and seed. A warm local rerun against the same cache then serves the
// remotely-computed entries without executing anything.
func TestDistributedSweepMatchesSerial(t *testing.T) {
	g := smallGrid(42)
	const rounds = 25
	ctx := context.Background()

	// The cold serial reference, no cache, no workers.
	serial, err := RunSweep(ctx, g, rounds, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Two loopback workers running the real per-cell runners, exactly
	// as `autofl-sweep -worker` wires them.
	runners := func(r int, traced bool) sweep.Runner {
		if traced {
			return TracedSweepRunner(r)
		}
		return SweepRunner(r)
	}
	newWorker := func() *dist.Worker {
		w, err := dist.NewWorker("127.0.0.1:0", 2, runners)
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		return w
	}
	w1, w2 := newWorker(), newWorker()

	dir := t.TempDir()
	shared, err := cache.Open(dir, SweepSignature(g, rounds))
	if err != nil {
		t.Fatal(err)
	}
	var audit dist.Audit
	distStore, err := RunSweepWith(ctx, g, SweepOptions{
		MaxRounds:    rounds,
		Cache:        shared,
		CostSchedule: true,
		Workers:      []string{w1.Addr(), w2.Addr()},
		Audit:        &audit,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 0 local executions: every cell was a cache miss shipped remotely,
	// no cell errored (the guard runner errors any local attempt), and
	// the workers account for the whole grid.
	if st := shared.Stats(); st.Hits != 0 || st.Misses != g.Size() {
		t.Errorf("distributed cold stats = %+v, want %d misses", st, g.Size())
	}
	for _, r := range distStore.Results() {
		if r.Err != "" {
			t.Errorf("cell %s errored: %s", r.Cell.Key(), r.Err)
		}
	}
	total := 0
	for _, n := range audit.Workers {
		total += n
	}
	if total != g.Size() {
		t.Errorf("per-worker counts %v sum to %d, want %d", audit.Workers, total, g.Size())
	}
	if audit.CacheMisses != g.Size() || audit.FailedCells != 0 {
		t.Errorf("audit = %+v, want %d misses and no failed cells", audit, g.Size())
	}

	// Remote results were committed into the shared cache by digest.
	if shared.Len() != g.Size() {
		t.Errorf("cache holds %d of %d remote results", shared.Len(), g.Size())
	}

	// Byte-identical JSON and CSV to the cold serial run.
	var sj, dj, sc, dc bytes.Buffer
	if err := serial.WriteJSON(&sj); err != nil {
		t.Fatal(err)
	}
	if err := distStore.WriteJSON(&dj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), dj.Bytes()) {
		t.Error("distributed JSON differs from cold serial JSON")
	}
	if err := serial.WriteCSV(&sc); err != nil {
		t.Fatal(err)
	}
	if err := distStore.WriteCSV(&dc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sc.Bytes(), dc.Bytes()) {
		t.Error("distributed CSV differs from cold serial CSV")
	}
	if err := shared.Close(); err != nil {
		t.Fatal(err)
	}

	// A warm *local* rerun serves the remotely-computed entries: the
	// cache is placement-agnostic.
	warm, err := cache.Open(dir, SweepSignature(g, rounds))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warmStore, err := RunSweepWith(ctx, g, SweepOptions{MaxRounds: rounds, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Hits != g.Size() || st.Misses != 0 {
		t.Errorf("warm local rerun executed cells: stats = %+v", st)
	}
	var wj bytes.Buffer
	if err := warmStore.WriteJSON(&wj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), wj.Bytes()) {
		t.Error("warm local JSON differs from cold serial JSON after remote commits")
	}
}

// TestSweepOptionsRejectsWorkersPlusExecutor pins the mutual-exclusion
// rule on the redesigned options surface.
func TestSweepOptionsRejectsWorkersPlusExecutor(t *testing.T) {
	g := smallGrid(1)
	_, err := RunSweepWith(context.Background(), g, SweepOptions{
		Workers: []string{"127.0.0.1:1"},
		Options: sweep.Options{Executor: &sweep.LocalExecutor{}},
	})
	if err == nil {
		t.Fatal("Workers plus an explicit Executor must be rejected")
	}
}

// TestSweepSignatureNormalizesRounds pins the 0 ≡ 1000 horizon rule so
// default and explicit invocations share cache entries.
func TestSweepSignatureNormalizesRounds(t *testing.T) {
	g := smallGrid(1)
	if SweepSignature(g, 0) != SweepSignature(g, 1000) {
		t.Error("MaxRounds 0 must normalize to the paper's 1000")
	}
	if SweepSignature(g, 100) == SweepSignature(g, 200) {
		t.Error("distinct horizons must produce distinct signatures")
	}
}

// TestSweepGridCoversEveryAxis pins the full grid to the public axis
// lists.
func TestSweepGridCoversEveryAxis(t *testing.T) {
	g := SweepGrid(1, 2)
	want := len(Workloads()) * len(Settings()) * len(DataScenarios()) *
		len(Environments()) * len(Policies()) * 2
	if g.Size() != want {
		t.Fatalf("Size = %d, want %d", g.Size(), want)
	}
}

// TestSweepRunnerUnknownAxis checks that a bad cell surfaces as a cell
// error, not a sweep failure.
func TestSweepRunnerUnknownAxis(t *testing.T) {
	g := sweep.Grid{Policies: []string{"NoSuchPolicy"}, Seed: 3}
	store, err := RunSweep(context.Background(), g, 5, sweep.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs := store.Results()
	if len(rs) != 1 || rs[0].Err == "" {
		t.Fatalf("unknown policy must produce a cell error: %+v", rs)
	}
}

// TestCrossHorizonCacheReuse is the trace-truncation acceptance
// criterion on real Scenario runs: a grid swept at -rounds 1000 into a
// cache answers a -rounds 200 re-query executing zero cells, with
// output byte-identical to a cold 200-round sweep; re-querying at 1000
// re-runs nothing but the cells no cached run can witness.
func TestCrossHorizonCacheReuse(t *testing.T) {
	// iid converges well inside 1000 rounds; noniid100 under Random
	// stalls and runs the full horizon — both serving paths (converged
	// entry, trace-prefix replay) are exercised.
	checkCrossHorizon(t, sweep.Grid{
		Workloads: []string{string(CNNMNIST)},
		Settings:  []string{string(S3)},
		Data:      []string{string(IdealIID), string(NonIID100)},
		Envs:      []string{string(EnvField)},
		Policies:  []string{string(PolicyRandom), string(PolicyAutoFL)},
		Seed:      99,
	})
}

// TestCrossHorizonCacheReuseAsyncBattery extends the cross-horizon
// contract to the trace arrays only some runs record: an async cell
// (per-round staleness) and a solar-battery cell (per-round Jain index
// and mean charge) must replay from a 1000-round cache at 200 rounds
// byte-identically to a cold run.
func TestCrossHorizonCacheReuseAsyncBattery(t *testing.T) {
	base := sweep.Grid{
		Workloads: []string{string(CNNMNIST)},
		Settings:  []string{string(S3)},
		Data:      []string{string(NonIID100)},
		Envs:      []string{string(EnvField)},
		Policies:  []string{string(PolicyRandom), string(PolicyAutoFL)},
		Seed:      99,
	}
	async := base
	async.Modes = []string{string(AsyncAggregation)}
	async.Alphas = []string{"0.5"}
	batt := base
	batt.Batteries = []string{string(BatterySolar)}
	for name, g := range map[string]sweep.Grid{"async": async, "battery": batt} {
		t.Run(name, func(t *testing.T) {
			// noniid100 under Random stalls for the whole horizon, so at
			// least that cell is served by trace-prefix replay.
			if st := checkCrossHorizon(t, g); st.PrefixHits == 0 {
				t.Errorf("no cell was served by prefix replay: stats = %+v", st)
			}
		})
	}
}

// checkCrossHorizon runs g at 1000 rounds into a fresh cache, then
// re-queries it at 200 rounds (every cell served, bytes equal to a
// cold 200-round sweep) and at 1000 rounds (every cell served). It
// returns the 200-round cache's stats.
func checkCrossHorizon(t *testing.T, g sweep.Grid) cache.Stats {
	t.Helper()
	dir := t.TempDir()
	ctx := context.Background()

	long, err := cache.Open(dir, SweepSignature(g, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweepWith(ctx, g, SweepOptions{MaxRounds: 1000, Cache: long}); err != nil {
		t.Fatal(err)
	}
	if st := long.Stats(); st.Misses != g.Size() {
		t.Fatalf("long sweep stats = %+v", st)
	}
	if err := long.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-query at 200 rounds: zero executions, bytes identical to a
	// cold 200-round sweep.
	short, err := cache.Open(dir, SweepSignature(g, 200))
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	served, err := RunSweepWith(ctx, g, SweepOptions{MaxRounds: 200, Cache: short})
	if err != nil {
		t.Fatal(err)
	}
	shortStats := short.Stats()
	if st := shortStats; st.Hits != g.Size() || st.Misses != 0 {
		t.Errorf("200-round re-query executed cells: stats = %+v", st)
	}
	if n := served.Failed(); n != 0 {
		t.Errorf("%d served cells failed", n)
	}
	cold, err := RunSweep(ctx, g, 200, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sj, cj bytes.Buffer
	if err := served.WriteJSON(&sj); err != nil {
		t.Fatal(err)
	}
	if err := cold.WriteJSON(&cj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), cj.Bytes()) {
		t.Error("trace-served 200-round JSON differs from a cold 200-round sweep")
	}

	// Re-query at the original 1000: every cell still served (the
	// entries were recorded at this horizon).
	full, err := cache.Open(dir, SweepSignature(g, 1000))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if _, err := RunSweepWith(ctx, g, SweepOptions{MaxRounds: 1000, Cache: full}); err != nil {
		t.Fatal(err)
	}
	if st := full.Stats(); st.Hits != g.Size() || st.Misses != 0 {
		t.Errorf("1000-round re-query executed cells: stats = %+v", st)
	}
	return shortStats
}
