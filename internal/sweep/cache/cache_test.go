package cache

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"autofl/internal/rng"
	"autofl/internal/sweep"
)

// testGrid is a 16-cell grid: 2 data × 2 envs × 2 policies × 2
// replicates.
func testGrid() sweep.Grid {
	return sweep.Grid{
		Workloads:  []string{"CNN-MNIST"},
		Settings:   []string{"S3"},
		Data:       []string{"iid", "noniid50"},
		Envs:       []string{"ideal", "field"},
		Policies:   []string{"FedAvg-Random", "AutoFL"},
		Replicates: 2,
		Seed:       42,
	}
}

func testSig() Signature { return Signature{GridSeed: 42, Rounds: 100} }

// fakeRunner derives a deterministic outcome from the cell seed alone,
// standing in for a Scenario run.
func fakeRunner(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
	s := rng.New(seed)
	return sweep.Outcome{
		Converged:       s.Bool(0.5),
		Rounds:          1 + s.IntN(100),
		TimeToTargetSec: 10 * s.Float64(),
		EnergyToTargetJ: 100 * s.Float64(),
		GlobalPPW:       s.Float64(),
		LocalPPW:        s.Float64(),
		FinalAccuracy:   s.Float64(),
	}, nil
}

// countingRunner wraps a runner and counts executions per cell key.
type countingRunner struct {
	mu    sync.Mutex
	calls map[string]int
	inner sweep.Runner
}

func newCounting(inner sweep.Runner) *countingRunner {
	return &countingRunner{calls: map[string]int{}, inner: inner}
}

func (c *countingRunner) run(ctx context.Context, cell sweep.Cell, seed uint64) (sweep.Outcome, error) {
	c.mu.Lock()
	c.calls[cell.Key()]++
	c.mu.Unlock()
	return c.inner(ctx, cell, seed)
}

func (c *countingRunner) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

func mustJSON(t *testing.T, s *sweep.ResultStore) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func mustCSV(t *testing.T, s *sweep.ResultStore) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func mustOpen(t *testing.T, dir string, sig Signature) *Cache {
	t.Helper()
	c, err := Open(dir, sig)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServeMatchesRunnerLookups pins the exported Serve path the
// distributed coordinator uses: same answers, same stats accounting,
// as the Runner wrapper's internal lookups.
func TestServeMatchesRunnerLookups(t *testing.T) {
	g := testGrid()
	c := mustOpen(t, t.TempDir(), testSig())

	cells := g.Cells()
	// Misses on an empty cache count toward Stats.Misses, like the
	// Runner's execute path.
	if _, ok := c.Serve(cells[0], g.CellSeed(cells[0])); ok {
		t.Fatal("empty cache served a cell")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats after miss = %+v", st)
	}

	// Commit one cell the way the coordinator does, then Serve must
	// hit with the identical outcome — and a wrong seed must not.
	seed := g.CellSeed(cells[0])
	out, err := fakeRunner(context.Background(), cells[0], seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(sweep.Result{Cell: cells[0], Seed: seed, Outcome: out}, 0.5); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Serve(cells[0], seed)
	if !ok || got != out {
		t.Fatalf("Serve = %+v ok=%v, want the committed outcome", got, ok)
	}
	if _, ok := c.Serve(cells[0], seed+1); ok {
		t.Error("Serve hit with a mismatched seed")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats after hit+bad-seed = %+v", st)
	}
}

// TestWarmRerunExecutesNothing is the headline acceptance bar: a rerun
// of a finished grid against its cache executes zero cells and emits
// byte-identical JSON and CSV to the cold run.
func TestWarmRerunExecutesNothing(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()

	cold := mustOpen(t, dir, testSig())
	cr := newCounting(fakeRunner)
	coldStore, err := sweep.Run(context.Background(), g, cold.Runner(cr.run), sweep.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cr.total() != g.Size() {
		t.Fatalf("cold run executed %d cells, want %d", cr.total(), g.Size())
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != g.Size() {
		t.Fatalf("cold stats = %+v", st)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := mustOpen(t, dir, testSig())
	if warm.Len() != g.Size() {
		t.Fatalf("reloaded cache holds %d entries, want %d", warm.Len(), g.Size())
	}
	wr := newCounting(fakeRunner)
	warmStore, err := sweep.Run(context.Background(), g, warm.Runner(wr.run), sweep.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if wr.total() != 0 {
		t.Errorf("warm rerun executed %d cells, want 0: %v", wr.total(), wr.calls)
	}
	if st := warm.Stats(); st.Hits != g.Size() || st.Misses != 0 {
		t.Errorf("warm stats = %+v", st)
	}
	if !bytes.Equal(mustJSON(t, coldStore), mustJSON(t, warmStore)) {
		t.Error("warm JSON differs from cold JSON")
	}
	if !bytes.Equal(mustCSV(t, coldStore), mustCSV(t, warmStore)) {
		t.Error("warm CSV differs from cold CSV")
	}
}

// TestExtendedGridExecutesOnlyNewCells extends a finished grid by one
// axis value and one replicate and checks that exactly the new cells
// run.
func TestExtendedGridExecutesOnlyNewCells(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()

	c := mustOpen(t, dir, testSig())
	if _, err := sweep.Run(context.Background(), g, c.Runner(fakeRunner), sweep.Options{}); err != nil {
		t.Fatal(err)
	}

	// One new policy and one new replicate: the extended grid has
	// 2×2×3×3 = 36 cells, 16 of which are cached.
	ext := g
	ext.Policies = append(append([]string{}, g.Policies...), "Power")
	ext.Replicates = 3

	cached := map[string]bool{}
	for _, cell := range g.Cells() {
		cached[cell.Key()] = true
	}
	cr := newCounting(fakeRunner)
	store, err := sweep.Run(context.Background(), ext, c.Runner(cr.run), sweep.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != ext.Size() {
		t.Fatalf("extended run stored %d cells, want %d", store.Len(), ext.Size())
	}
	wantNew := ext.Size() - g.Size()
	if cr.total() != wantNew {
		t.Errorf("extended run executed %d cells, want %d", cr.total(), wantNew)
	}
	for key, n := range cr.calls {
		if cached[key] {
			t.Errorf("cached cell %s was re-executed", key)
		}
		if n != 1 {
			t.Errorf("cell %s executed %d times", key, n)
		}
	}

	// The extended output matches a cache-free run of the same grid.
	fresh, err := sweep.Run(context.Background(), ext, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, store), mustJSON(t, fresh)) {
		t.Error("extended cached JSON differs from a cache-free run")
	}
}

// TestCrashResume cancels a sweep mid-grid, then resumes it and checks
// that exactly the missing cells run and no cached cell executes
// twice.
func TestCrashResume(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	crash := mustOpen(t, dir, testSig())
	var mu sync.Mutex
	ran := 0
	crashRunner := func(ctx context.Context, cell sweep.Cell, seed uint64) (sweep.Outcome, error) {
		mu.Lock()
		ran++
		if ran == 5 {
			cancel()
		}
		mu.Unlock()
		return fakeRunner(ctx, cell, seed)
	}
	_, err := sweep.Run(ctx, g, crash.Runner(crashRunner), sweep.Options{Parallel: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := crash.Close(); err != nil {
		t.Fatal(err)
	}

	resume := mustOpen(t, dir, testSig())
	survived := resume.Len()
	if survived == 0 || survived >= g.Size() {
		t.Fatalf("crash left %d cached cells, want a strict partial of %d", survived, g.Size())
	}
	cachedKeys := map[string]bool{}
	for _, e := range resume.Entries() {
		cachedKeys[e.Result.Cell.Key()] = true
	}

	cr := newCounting(fakeRunner)
	store, err := sweep.Run(context.Background(), g, resume.Runner(cr.run), sweep.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := g.Size() - survived; cr.total() != want {
		t.Errorf("resume executed %d cells, want exactly the %d missing", cr.total(), want)
	}
	for key := range cr.calls {
		if cachedKeys[key] {
			t.Errorf("resume re-executed cached cell %s", key)
		}
	}

	// The resumed output matches an uninterrupted cache-free run.
	fresh, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, store), mustJSON(t, fresh)) {
		t.Error("resumed JSON differs from an uninterrupted run")
	}
}

// TestSeedMismatchInvalidates reopens a populated cache under a
// different grid seed, which must drop every entry; a changed horizon
// alone keeps the store (entries are served per-horizon instead).
func TestSeedMismatchInvalidates(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	c := mustOpen(t, dir, testSig())
	if _, err := sweep.Run(context.Background(), g, c.Runner(fakeRunner), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	roundsChanged := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 200})
	if roundsChanged.Len() != g.Size() {
		t.Errorf("horizon change kept %d entries, want all %d", roundsChanged.Len(), g.Size())
	}
	roundsChanged.Close()

	seedChanged := mustOpen(t, dir, Signature{GridSeed: 43, Rounds: 100})
	if seedChanged.Len() != 0 {
		t.Errorf("grid-seed change kept %d entries, want 0", seedChanged.Len())
	}
}

// TestOlderFormatIsAMiss reopens a populated cache whose manifest
// carries an older format version — 2, the last written by the
// materialized-fleet engine, and 3, the last written by the
// shuffle-and-sort candidate sampler: the store must be dropped, so
// none of its outcomes is served.
func TestOlderFormatIsAMiss(t *testing.T) {
	g := testGrid()
	for _, version := range []int{2, 3} {
		dir := t.TempDir()
		c := mustOpen(t, dir, testSig())
		if _, err := sweep.Run(context.Background(), g, c.Runner(fakeRunner), sweep.Options{}); err != nil {
			t.Fatal(err)
		}
		c.Close()
		raw, err := json.Marshal(manifest{Version: version, GridSeed: testSig().GridSeed})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}

		old := mustOpen(t, dir, testSig())
		if old.Len() != 0 {
			t.Errorf("a version-%d store kept %d entries, want 0", version, old.Len())
		}
		for _, cell := range g.Cells() {
			if _, ok := old.Serve(cell, g.CellSeed(cell)); ok {
				t.Fatalf("a version-%d store served %+v", version, cell)
			}
		}
	}
}

// TestAxisValueChangesDigest is the axis-definition invalidation rule:
// renaming any axis value of a cell changes its digest, including
// values crafted to collide under naive string joining.
func TestAxisValueChangesDigest(t *testing.T) {
	sig := testSig()
	base := sweep.Cell{Workload: "w", Setting: "s", Data: "d", Env: "e", Policy: "p"}
	variants := []sweep.Cell{
		{Workload: "w2", Setting: "s", Data: "d", Env: "e", Policy: "p"},
		{Workload: "w", Setting: "s2", Data: "d", Env: "e", Policy: "p"},
		{Workload: "w", Setting: "s", Data: "d2", Env: "e", Policy: "p"},
		{Workload: "w", Setting: "s", Data: "d", Env: "e2", Policy: "p"},
		{Workload: "w", Setting: "s", Data: "d", Env: "e", Policy: "p2"},
		{Workload: "w", Setting: "s", Data: "d", Env: "e", Policy: "p", Replicate: 1},
		// Separator-stuffing collisions under a naive "w|s" join.
		{Workload: "w|s", Setting: "", Data: "d", Env: "e", Policy: "p"},
		{Workload: "w|", Setting: "s", Data: "d", Env: "e", Policy: "p"},
	}
	seen := map[string]int{sig.CellDigest(base): -1}
	for i, v := range variants {
		d := sig.CellDigest(v)
		if j, dup := seen[d]; dup {
			t.Errorf("digest collision between variants %d and %d", i, j)
		}
		seen[d] = i
	}
}

// TestErroredCellsNotCached checks that failures are re-executed on
// resume rather than served stale.
func TestErroredCellsNotCached(t *testing.T) {
	g := sweep.Grid{Policies: []string{"ok", "bad"}, Seed: 7}
	dir := t.TempDir()
	run := func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		if c.Policy == "bad" {
			return sweep.Outcome{}, errors.New("transient")
		}
		return fakeRunner(ctx, c, seed)
	}
	c := mustOpen(t, dir, Signature{GridSeed: 7, Rounds: 10})
	if _, err := sweep.Run(context.Background(), g, c.Runner(run), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want only the successful cell", c.Len())
	}
	cr := newCounting(run)
	if _, err := sweep.Run(context.Background(), g, c.Runner(cr.run), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if cr.total() != 1 {
		t.Errorf("rerun executed %d cells, want 1 (the errored one)", cr.total())
	}
	if _, bad := cr.calls[sweep.Cell{Policy: "bad"}.Key()]; !bad {
		t.Error("the errored cell was not re-executed")
	}
}

// TestCorruptLinesSkipped simulates a crash-torn tail and foreign
// garbage in the JSONL store; valid entries must survive the reload.
func TestCorruptLinesSkipped(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	c := mustOpen(t, dir, testSig())
	if _, err := sweep.Run(context.Background(), g, c.Runner(fakeRunner), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	path := filepath.Join(dir, "results.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage, a wrong-digest entry, and a torn final line.
	fmt.Fprintln(f, "not json at all")
	fmt.Fprintln(f, `{"digest":"deadbeef","result":{"cell":{"workload":"x","setting":"","data":"","env":"","policy":"","replicate":0},"seed":1,"outcome":{"converged":false,"rounds":1,"time_to_target_sec":0,"energy_to_target_j":0,"global_ppw":0,"local_ppw":0,"final_accuracy":0}},"wall_seconds":0}`)
	fmt.Fprint(f, `{"digest":"tr`)
	f.Close()

	re := mustOpen(t, dir, testSig())
	if re.Len() != g.Size() {
		t.Errorf("reload kept %d entries, want %d valid ones", re.Len(), g.Size())
	}
	cr := newCounting(fakeRunner)
	if _, err := sweep.Run(context.Background(), g, re.Runner(cr.run), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if cr.total() != 0 {
		t.Errorf("corruption caused %d re-executions, want 0", cr.total())
	}
}

// TestOversizedGarbageTailTolerated writes a newline-free garbage run
// past the scanner's line budget; Open must keep the valid entries
// instead of failing, so the cache never bricks its directory.
func TestOversizedGarbageTailTolerated(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	c := mustOpen(t, dir, testSig())
	if _, err := sweep.Run(context.Background(), g, c.Runner(fakeRunner), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{'x'}, 5<<20)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := mustOpen(t, dir, testSig())
	if re.Len() != g.Size() {
		t.Errorf("reload kept %d entries, want %d despite the garbage tail", re.Len(), g.Size())
	}
}

// TestConcurrentWriters drives two handles on one directory from
// overlapping sweeps (run under -race in CI) and checks the merged
// store reloads complete and uncorrupted.
func TestConcurrentWriters(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	a := mustOpen(t, dir, testSig())
	b := mustOpen(t, dir, testSig())

	var wg sync.WaitGroup
	for _, c := range []*Cache{a, b} {
		wg.Add(1)
		go func(c *Cache) {
			defer wg.Done()
			if _, err := sweep.Run(context.Background(), g, c.Runner(fakeRunner), sweep.Options{Parallel: 4}); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, testSig())
	if re.Len() != g.Size() {
		t.Fatalf("merged cache holds %d entries, want %d", re.Len(), g.Size())
	}
	for _, e := range re.Entries() {
		if e.Digest != testSig().CellDigest(e.Result.Cell) {
			t.Errorf("entry %s has a mismatched digest", e.Result.Cell.Key())
		}
	}
	cr := newCounting(fakeRunner)
	store, err := sweep.Run(context.Background(), g, re.Runner(cr.run), sweep.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cr.total() != 0 {
		t.Errorf("merged cache missed %d cells", cr.total())
	}
	fresh, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, store), mustJSON(t, fresh)) {
		t.Error("merged-cache JSON differs from a cache-free run")
	}
}

// TestInvalidate drops entries for -resume=false semantics: the next
// run re-executes everything while refreshing the store.
func TestInvalidate(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	c := mustOpen(t, dir, testSig())
	if _, err := sweep.Run(context.Background(), g, c.Runner(fakeRunner), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("Invalidate kept %d entries", c.Len())
	}
	cr := newCounting(fakeRunner)
	if _, err := sweep.Run(context.Background(), g, c.Runner(cr.run), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if cr.total() != g.Size() {
		t.Errorf("post-invalidate run executed %d cells, want %d", cr.total(), g.Size())
	}
	c.Close()
	re := mustOpen(t, dir, testSig())
	if re.Len() != g.Size() {
		t.Errorf("refreshed cache holds %d entries, want %d", re.Len(), g.Size())
	}
}

// TestEntriesSortedAndObservable pins the calibration view: entries
// come back sorted by cell key with positive wall-clock.
func TestEntriesSortedAndObservable(t *testing.T) {
	g := testGrid()
	c := mustOpen(t, t.TempDir(), testSig())
	if _, err := sweep.Run(context.Background(), g, c.Runner(fakeRunner), sweep.Options{Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	entries := c.Entries()
	if len(entries) != g.Size() {
		t.Fatalf("Entries() = %d, want %d", len(entries), g.Size())
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Result.Cell.Key() >= entries[i].Result.Cell.Key() {
			t.Errorf("entries not sorted at %d", i)
		}
		if entries[i].WallSeconds < 0 {
			t.Errorf("negative wall-clock at %d", i)
		}
	}
}

// tracedFakeRunner stands in for the real traced Scenario runner: a
// horizon-bounded deterministic "simulator" whose per-round draws
// depend only on the seed and round index (never the horizon), whose
// run stops at the first round crossing the accuracy target, and
// whose outcome is the replay of its own trace — so a trace recorded
// at one horizon reproduces the runner's output at any shorter one,
// exactly like the engine.
func tracedFakeRunner(horizon int) sweep.Runner {
	return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		s := rng.New(seed)
		tr := &sweep.RunTrace{V: sweep.TraceVersion, TargetAccuracy: 0.9, AccuracyFloor: 0.1}
		acc := 0.1
		for i := 0; i < horizon; i++ {
			acc += s.Float64() * 0.08 // upward walk; cells cross 0.9 at varied rounds
			tr.Sec = append(tr.Sec, 1+s.Float64())
			tr.EnergyJ = append(tr.EnergyJ, 10+s.Float64())
			tr.ParticipantEnergyJ = append(tr.ParticipantEnergyJ, 4+s.Float64())
			tr.Accuracy = append(tr.Accuracy, acc)
			if acc >= 0.9 {
				break // converged: the run stops, like the engine
			}
		}
		out, ok := tr.OutcomeAt(horizon)
		if !ok {
			return sweep.Outcome{}, errors.New("tracedFakeRunner: self-replay failed")
		}
		out.Trace = tr
		return out, nil
	}
}

// stripTrace adapts a traced runner into one whose outcomes carry no
// payload, for cache-free reference runs.
func stripTrace(run sweep.Runner) sweep.Runner {
	return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		out, err := run(ctx, c, seed)
		out.Trace = nil
		return out, err
	}
}

// TestHorizonPrefixServing is the cross-horizon acceptance bar at the
// cache level: a grid cached at 100 rounds serves a 25-round request
// without executing a single cell, byte-identical to a cold 25-round
// sweep.
func TestHorizonPrefixServing(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()

	long := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 100})
	if _, err := sweep.Run(context.Background(), g, long.Runner(tracedFakeRunner(100)), sweep.Options{Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	if err := long.Close(); err != nil {
		t.Fatal(err)
	}

	short := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 25})
	cr := newCounting(tracedFakeRunner(25))
	served, err := sweep.Run(context.Background(), g, short.Runner(cr.run), sweep.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cr.total() != 0 {
		t.Errorf("short-horizon query executed %d cells, want 0", cr.total())
	}
	st := short.Stats()
	if st.Hits != g.Size() || st.Misses != 0 {
		t.Errorf("short-horizon stats = %+v, want all hits", st)
	}
	// PrefixHits counts exactly the serves that required truncating a
	// longer run: neither an exact-horizon entry nor a run that
	// converged within the request.
	wantPrefix := 0
	for _, e := range short.Entries() {
		out := e.Result.Outcome
		if e.Rounds != 25 && !(out.Converged && out.Rounds <= 25) {
			wantPrefix++
		}
	}
	if wantPrefix == 0 {
		t.Error("test grid produced no trace-replay serves")
	}
	if st.PrefixHits != wantPrefix {
		t.Errorf("PrefixHits = %d, want %d", st.PrefixHits, wantPrefix)
	}

	fresh, err := sweep.Run(context.Background(), g, stripTrace(tracedFakeRunner(25)), sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, served), mustJSON(t, fresh)) {
		t.Error("trace-served 25-round JSON differs from a cold 25-round sweep")
	}
	if !bytes.Equal(mustCSV(t, served), mustCSV(t, fresh)) {
		t.Error("trace-served 25-round CSV differs from a cold 25-round sweep")
	}
}

// TestLongerHorizonReRunsOnlyUnconverged checks the upgrade path: a
// cache built at 25 rounds answers a 100-round request from entries
// whose runs converged within 25 rounds (a longer horizon changes
// nothing for them) and re-executes exactly the rest.
func TestLongerHorizonReRunsOnlyUnconverged(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()

	short := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 25})
	if _, err := sweep.Run(context.Background(), g, short.Runner(tracedFakeRunner(25)), sweep.Options{Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	unconverged := 0
	for _, e := range short.Entries() {
		if !e.Result.Outcome.Converged {
			unconverged++
		}
	}
	if unconverged == 0 || unconverged == g.Size() {
		t.Fatalf("test wants a mix, got %d/%d unconverged", unconverged, g.Size())
	}
	if err := short.Close(); err != nil {
		t.Fatal(err)
	}

	long := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 100})
	cr := newCounting(tracedFakeRunner(100))
	upgraded, err := sweep.Run(context.Background(), g, long.Runner(cr.run), sweep.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cr.total() != unconverged {
		t.Errorf("upgrade executed %d cells, want the %d unconverged ones", cr.total(), unconverged)
	}
	fresh, err := sweep.Run(context.Background(), g, stripTrace(tracedFakeRunner(100)), sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, upgraded), mustJSON(t, fresh)) {
		t.Error("upgraded JSON differs from a cold 100-round sweep")
	}
}

// TestUntracedEntriesServeOnlyTheirHorizon pins the conservative
// fallback: an entry without a trace that did not converge can answer
// only its own horizon.
func TestUntracedEntriesServeOnlyTheirHorizon(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	stalled := func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		out, err := fakeRunner(ctx, c, seed)
		out.Converged = false
		return out, err
	}

	c := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 100})
	if _, err := sweep.Run(context.Background(), g, c.Runner(stalled), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 25})
	cr := newCounting(stalled)
	if _, err := sweep.Run(context.Background(), g, re.Runner(cr.run), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if cr.total() != g.Size() {
		t.Errorf("untraced unconverged entries served %d cells across horizons", g.Size()-cr.total())
	}
}

// TestGCCompactsStore builds a store with superseded duplicates (a
// horizon upgrade) plus corrupt garbage, GCs it, and checks the
// compacted file keeps exactly the live entries and still serves.
func TestGCCompactsStore(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()

	short := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 25})
	if _, err := sweep.Run(context.Background(), g, short.Runner(tracedFakeRunner(25)), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := short.Close(); err != nil {
		t.Fatal(err)
	}

	// The upgrade appends replacement lines for every unconverged cell.
	long := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 100})
	if _, err := sweep.Run(context.Background(), g, long.Runner(tracedFakeRunner(100)), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := long.Close(); err != nil {
		t.Fatal(err)
	}

	// Plus garbage: a corrupt trailing line.
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, "corrupt garbage")
	f.Close()

	gc := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 100})
	kept, dropped, err := gc.GC()
	if err != nil {
		t.Fatal(err)
	}
	if kept != g.Size() {
		t.Errorf("GC kept %d entries, want %d", kept, g.Size())
	}
	if dropped == 0 {
		t.Error("GC dropped nothing despite duplicates and garbage")
	}
	// The compacted file holds exactly one line per cell.
	raw, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(raw, []byte("\n")); lines != g.Size() {
		t.Errorf("compacted store has %d lines, want %d", lines, g.Size())
	}
	// The handle still appends and serves after GC.
	cr := newCounting(tracedFakeRunner(100))
	if _, err := sweep.Run(context.Background(), g, gc.Runner(cr.run), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if cr.total() != 0 {
		t.Errorf("post-GC run executed %d cells, want 0", cr.total())
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	// A reload of the compacted store is complete, and a second GC is
	// a no-op.
	kept2, dropped2, err := GCDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if kept2 != g.Size() || dropped2 != 0 {
		t.Errorf("idempotent GC = (%d kept, %d dropped), want (%d, 0)", kept2, dropped2, g.Size())
	}
}

// TestGCDirRefusesForeignStores checks GCDir never resets a directory
// it cannot identify.
func TestGCDirRefusesForeignStores(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := GCDir(dir); err == nil {
		t.Error("GCDir of an empty directory should fail, not create a store")
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"version":1,"signature":{"grid_seed":1,"rounds":10}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := GCDir(dir); err == nil {
		t.Error("GCDir of an old-format store should fail rather than drop it")
	}
}

// TestMismatchedOpenHorizonCannotPoison pins the Put-side honesty
// rule: entries record the horizon their run actually witnessed, not
// the horizon the cache was opened with — so a caller that opens a
// cache at one horizon but bounds the runner at another cannot poison
// later queries with short runs served as long ones.
func TestMismatchedOpenHorizonCannotPoison(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()

	// Open claiming 100 rounds, but the runner only executes 25.
	lying := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 100})
	if _, err := sweep.Run(context.Background(), g, lying.Runner(tracedFakeRunner(25)), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, e := range lying.Entries() {
		if e.Rounds > 25 {
			t.Fatalf("entry claims %d rounds, runner executed at most 25", e.Rounds)
		}
	}
	if err := lying.Close(); err != nil {
		t.Fatal(err)
	}

	// An honest 100-round query re-executes every cell the short runs
	// cannot witness (the unconverged ones) instead of serving them.
	honest := mustOpen(t, dir, Signature{GridSeed: 42, Rounds: 100})
	cr := newCounting(tracedFakeRunner(100))
	store, err := sweep.Run(context.Background(), g, honest.Runner(cr.run), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sweep.Run(context.Background(), g, stripTrace(tracedFakeRunner(100)), sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, store), mustJSON(t, fresh)) {
		t.Error("mismatched-open cache corrupted an honest 100-round sweep")
	}
}

// TestPreferKeepsWiderServingEntry pins duplicate resolution: a
// traced re-execution at a shorter horizon must not evict an untraced
// long-horizon entry that still serves queries the new entry cannot
// (the long exact hit survives), while a dominant entry replaces a
// subsumed one.
func TestPreferKeepsWiderServingEntry(t *testing.T) {
	g := sweep.Grid{Policies: []string{"p"}, Seed: 9}
	cell := g.Cells()[0]
	seed := g.CellSeed(cell)
	dir := t.TempDir()
	stalled := func(ctx context.Context, c sweep.Cell, s uint64) (sweep.Outcome, error) {
		out, err := fakeRunner(ctx, c, s)
		out.Converged = false
		return out, err
	}

	// Untraced 1000-round entry...
	long := mustOpen(t, dir, Signature{GridSeed: 9, Rounds: 1000})
	if _, err := sweep.Run(context.Background(), g, long.Runner(stalled), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := long.Close(); err != nil {
		t.Fatal(err)
	}

	// ...then a traced 200-round re-execution of the same cell.
	short := mustOpen(t, dir, Signature{GridSeed: 9, Rounds: 200})
	if _, err := sweep.Run(context.Background(), g, short.Runner(tracedFakeRunner(200)), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := short.Close(); err != nil {
		t.Fatal(err)
	}

	// The 1000-round exact hit must survive the reload merge.
	re := mustOpen(t, dir, Signature{GridSeed: 9, Rounds: 1000})
	if _, ok := re.serve(cell, seed); !ok {
		t.Error("traced short re-execution evicted the untraced long entry")
	}
	re.Close()

	// A dominant traced long entry does replace everything.
	upgrade := mustOpen(t, dir, Signature{GridSeed: 9, Rounds: 1000})
	if _, err := sweep.Run(context.Background(), g, upgrade.Runner(tracedFakeRunner(1000)), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{50, 200, 1000} {
		upgrade.sig.Rounds = h
		if !upgrade.Has(cell) {
			t.Errorf("dominant traced entry cannot serve horizon %d", h)
		}
	}
}
