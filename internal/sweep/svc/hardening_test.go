package svc

// Failure-hardening suite for the control plane: crash recovery
// through the job journal, worker flap cooldowns, registration under
// injected faults, client retry behavior across daemon restarts, and
// the fault counters on /v1/metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autofl/internal/chaos"
	"autofl/internal/sweep"
	"autofl/internal/sweep/dist"
)

// copyTree snapshots a directory — the filesystem state a kill -9
// would leave behind, taken while the source daemon is still running.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkGoroutines polls the goroutine count back to baseline after a
// fault-injection scenario tears down.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestJournalCrashRecovery is the kill -9 acceptance criterion: a
// daemon dies mid-grid, and a fresh daemon over the same state resumes
// the job under its original ID, re-executes only the cells the cache
// never committed, and produces bytes identical to an uninterrupted
// run.
func TestJournalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	defer close(gate)
	// Workloads is the outermost cell axis: the "CNN-MNIST" half of the
	// grid completes (and commits to the cache) before every pool slot
	// blocks on a gated "slow" cell — a reproducible mid-grid freeze
	// point to crash at.
	g := sweep.Grid{
		Workloads:  []string{"CNN-MNIST", "slow"},
		Settings:   []string{"S3"},
		Data:       []string{"iid"},
		Policies:   []string{"FedAvg-Random", "AutoFL", "Power"},
		Replicates: 2,
		Seed:       91,
	}
	fast := g.Size() / 2

	_, client1 := startDaemon(t, Config{Runners: gatedRunners(gate), CacheDir: dir, LocalParallel: 2})
	st, err := client1.Submit(context.Background(), JobSpec{Grid: g, Rounds: 100, Name: "crashy"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := client1.Status(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Done >= fast {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached the freeze point (done %d, want %d)", cur.Done, fast)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// "kill -9": snapshot the cache dir (journal included) while the
	// first daemon still holds the job, then bring a second daemon up
	// on the snapshot. The journal has accepted+started and no terminal
	// record, so the job must resume.
	snapshot := t.TempDir()
	copyTree(t, dir, snapshot)

	s2, client2 := startDaemon(t, Config{Runners: fakeRunners, CacheDir: snapshot, LocalParallel: 2})
	if n := s2.ResumedJobs(); n != 1 {
		t.Fatalf("ResumedJobs() = %d, want 1", n)
	}
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].ID != st.ID || jobs[0].Name != "crashy" {
		t.Fatalf("resumed jobs = %+v, want the original %s", jobs, st.ID)
	}
	final := waitJob(t, client2, st.ID)
	if final.State != StateDone || final.Done != g.Size() {
		t.Fatalf("resumed job = %+v", final)
	}
	if final.CacheHits != fast {
		t.Errorf("resumed job cache hits = %d, want the %d committed cells", final.CacheHits, fast)
	}
	got, err := client2.Result(context.Background(), st.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialJSON(t, g)) {
		t.Error("resumed job result differs from an uninterrupted serial run")
	}

	resp, err := client2.http().Get(client2.BaseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "autofl_sweepd_journal_resumed_total 1") {
		t.Errorf("metrics missing journal resume counter:\n%s", raw)
	}
}

// TestJournalReplayAndCompaction pins the journal file format: replay
// keeps accepted-but-not-terminal jobs in order, tolerates the torn
// tail a crash leaves, and compaction rewrites the file down to the
// pending set.
func TestJournalReplayAndCompaction(t *testing.T) {
	if jl, pending, err := openJournal(""); jl != nil || pending != nil || err != nil {
		t.Fatalf("no-dir journal = %v %v %v, want all nil", jl, pending, err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	doneSpec := JobSpec{Grid: testGrid(5), Rounds: 100, Name: "finished"}
	pendingSpec := JobSpec{Grid: testGrid(6), Rounds: 100, Name: "survivor"}
	var buf bytes.Buffer
	for _, rec := range []journalRecord{
		{Op: "accepted", ID: "job-000001", Spec: &doneSpec},
		{Op: "started", ID: "job-000001"},
		{Op: "accepted", ID: "job-000002", Spec: &pendingSpec},
		{Op: "started", ID: "job-000002"},
		{Op: "terminal", ID: "job-000001", State: StateDone},
	} {
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	buf.WriteString(`{"op":"accepted","id":"job-9`) // torn tail
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	jl, pending, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != "job-000002" || pending[0].Spec.Name != "survivor" {
		t.Fatalf("pending = %+v, want just job-000002", pending)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(bytes.TrimSpace(compacted), []byte("\n")) + 1; lines != 1 {
		t.Errorf("compacted journal has %d lines, want 1:\n%s", lines, compacted)
	}
	if !bytes.Contains(compacted, []byte("job-000002")) || bytes.Contains(compacted, []byte("job-000001")) {
		t.Errorf("compacted journal keeps the wrong jobs:\n%s", compacted)
	}

	jl.terminal("job-000002", StateDone)
	jl.Close()
	jl2, pending2, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if len(pending2) != 0 {
		t.Errorf("pending after terminal = %+v, want none", pending2)
	}
}

// TestFlappingWorkerCooldown exercises the registry's health scoring:
// a worker that keeps dying abnormally is benched into a cooldown
// before it can be leased again, the bench lapses on its own, and a
// completed lease clears the record.
func TestFlappingWorkerCooldown(t *testing.T) {
	reg := NewRegistry()
	reg.CooldownBase = 300 * time.Millisecond
	reg.CooldownMax = time.Second
	if _, err := reg.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })

	// Two consecutive abnormal deaths of the same named identity.
	for i := 0; i < 2; i++ {
		w, err := dist.NewDialWorker("flappy", 1, fakeRunners)
		if err != nil {
			t.Fatal(err)
		}
		go w.Register(context.Background(), reg.Addr(), dist.RegisterOptions{MinBackoff: 5 * time.Millisecond})
		waitWorkers(t, reg, 1)
		w.Close()
		deadline := time.Now().Add(10 * time.Second)
		for reg.Len() > 0 {
			if time.Now().After(deadline) {
				t.Fatal("dead worker never dropped")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if n := reg.Evictions(); n != 2 {
		t.Errorf("Evictions() = %d, want 2 (exactly one flap per death)", n)
	}

	// The third connection registers benched: visible, not leasable.
	w := registerWorker(t, reg, "flappy", fakeRunners)
	waitWorkers(t, reg, 1)
	ws := reg.Workers()
	if len(ws) != 1 || ws[0].State != "cooldown" || ws[0].Flaps != 2 {
		t.Fatalf("flapping worker = %+v, want state=cooldown flaps=2", ws)
	}

	// The cooldown lapses on its own; Acquire then leases it, and the
	// completed lease (Release) clears the flap record.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l, err := reg.Acquire(ctx)
	if err != nil {
		t.Fatalf("benched worker never promoted: %v", err)
	}
	if l.Name() != "flappy" {
		t.Errorf("acquired %q, want the benched worker", l.Name())
	}
	reg.Release(l)
	if ws := reg.Workers(); len(ws) != 1 || ws[0].State != "idle" || ws[0].Flaps != 0 {
		t.Errorf("post-release worker = %+v, want state=idle flaps=0", ws)
	}
	_ = w
}

// TestRegistrySurvivesBlackholedRegistration injects the
// partition-during-registration fault: the first registration
// connection blackholes mid-handshake. The handshake deadline must
// reap it (no stuck accept goroutine), and the worker's re-dial must
// land cleanly.
func TestRegistrySurvivesBlackholedRegistration(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Links = dist.LinkOptions{HandshakeTimeout: 50 * time.Millisecond}
	if err := reg.ListenOn(chaos.NewListener(ln, chaos.Script{{Blackhole: true}})); err != nil {
		t.Fatal(err)
	}

	w := registerWorker(t, reg, "patient", fakeRunners)
	waitWorkers(t, reg, 1) // the second dial, after the blackholed one is reaped

	w.Close()
	reg.Close()
	checkGoroutines(t, baseline)
}

// TestSweepSurvivesChaoticWorkerChurn is the seeded chaos soak: every
// registration connection draws its fault from a fixed seed (drops
// after a few frames read or written, in both directions), workers
// re-dial through the churn, and the finished job is byte-identical to
// a clean serial run. The generous retry budget keeps quarantine out
// of the picture — this test pins completion under churn, not
// containment.
func TestSweepSurvivesChaoticWorkerChurn(t *testing.T) {
	g := testGrid(97, "iid", "noniid50")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.ListenOn(chaos.NewListener(ln, chaos.Seeded(7, 0.5,
		chaos.Plan{DropAfterWrites: 4},
		chaos.Plan{DropAfterReads: 6},
	))); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	registerWorker(t, reg, "c1", fakeRunners)
	registerWorker(t, reg, "c2", fakeRunners)
	waitWorkers(t, reg, 1)

	_, client := startDaemon(t, Config{
		Runners: fakeRunners, Registry: reg, CacheDir: t.TempDir(),
		RetryBudget: 1000,
	})
	st, err := client.Submit(context.Background(), JobSpec{Grid: g, Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, client, st.ID)
	if final.State != StateDone || final.Done != g.Size() {
		t.Fatalf("job under churn = %+v", final)
	}
	if final.FailedCells != 0 || final.Quarantined != 0 {
		t.Errorf("churn must not quarantine with a deep budget: %+v", final)
	}
	got, err := client.Result(context.Background(), st.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialJSON(t, g)) {
		t.Error("result under churn differs from clean serial run")
	}
	t.Logf("churn survived: requeues=%d evictions=%d", final.Requeues, reg.Evictions())
}

// TestClientWaitRidesOutTransientErrors pins the client side of a
// daemon restart: consecutive 503s back off and retry up to the
// budget, a recovered daemon resumes the poll, and an exhausted budget
// surfaces the error.
func TestClientWaitRidesOutTransientErrors(t *testing.T) {
	s, err := New(Config{Runners: fakeRunners})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	inner := s.Handler()
	var fails atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/sweeps/") && fails.Add(-1) >= 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"restarting"}`))
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	client := &Client{BaseURL: srv.URL, HTTP: srv.Client()}
	st, err := client.Submit(context.Background(), JobSpec{Grid: testGrid(31), Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}

	fails.Store(3) // three consecutive 503s, then recovery
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := client.Wait(ctx, st.ID, 2*time.Millisecond, nil)
	if err != nil {
		t.Fatalf("Wait must ride out transient 503s: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("final = %+v", final)
	}

	// An outage longer than the budget surfaces the 503.
	fails.Store(1 << 30)
	bounded := &Client{BaseURL: srv.URL, HTTP: srv.Client(), WaitRetries: 2}
	_, err = bounded.Wait(ctx, st.ID, time.Millisecond, nil)
	apiErr := new(APIError)
	if !errors.As(err, &apiErr) || apiErr.Code != 503 {
		t.Fatalf("exhausted retry budget = %v, want the 503", err)
	}
}

// TestTransientWaitErrClassification pins which failures Wait retries.
func TestTransientWaitErrClassification(t *testing.T) {
	if !transientWaitErr(&url.Error{Op: "Get", URL: "http://127.0.0.1:1", Err: errors.New("connection refused")}) {
		t.Error("transport errors must be transient")
	}
	for _, code := range []int{502, 503, 504} {
		if !transientWaitErr(&APIError{Code: code}) {
			t.Errorf("%d must be transient", code)
		}
	}
	if transientWaitErr(&APIError{Code: 404}) {
		t.Error("404 must not be transient: the journal preserves job IDs across restarts")
	}
	if transientWaitErr(errors.New("decode failure")) {
		t.Error("arbitrary errors must not be transient")
	}
}

// TestMetricsExposeFaultCounters asserts the hardening counters are on
// /v1/metrics from the first scrape.
func TestMetricsExposeFaultCounters(t *testing.T) {
	_, client := startDaemon(t, Config{Runners: fakeRunners})
	resp, err := client.http().Get(client.BaseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, line := range []string{
		"autofl_sweepd_requeues_total 0",
		"autofl_sweepd_quarantined_total 0",
		"autofl_sweepd_failed_cells_total 0",
		"autofl_sweepd_journal_resumed_total 0",
		"autofl_sweepd_evictions_total 0",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics missing %q:\n%s", line, body)
		}
	}
}

// TestSubmitRejectsOversizedSpecs: a grid past the cell limit (ten axes
// of 100 values, whose product overflows int64), a replicate count past
// it, and a horizon past the round limit are each refused with 400
// before anything is queued or executed, and the daemon goes on serving.
func TestSubmitRejectsOversizedSpecs(t *testing.T) {
	exec := newExecCounter()
	s, client := startDaemon(t, Config{Runners: exec.runners})

	hundred := make([]string, 100)
	wide, err := json.Marshal(JobSpec{Grid: sweep.Grid{
		Workloads: hundred, Settings: hundred, Data: hundred, Envs: hundred,
		Policies: hundred, Modes: hundred, Alphas: hundred, Devices: hundred,
		Samples: hundred, Batteries: hundred,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"wide grid":  string(wide),
		"replicates": `{"grid": {"replicates": 1099511627776, "seed": 1}}`,
		"horizon":    `{"grid": {"seed": 1}, "rounds": 1099511627776}`,
	} {
		resp, err := client.http().Post(client.BaseURL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "over the limit") {
			t.Errorf("%s: status %d %s, want 400 over the limit", name, resp.StatusCode, raw)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected specs left jobs behind: %+v", jobs)
	}

	// The limits admit the paper's horizon, and the daemon still serves.
	g := testGrid(3)
	st, err := client.Submit(context.Background(), JobSpec{Grid: g, Rounds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, client, st.ID); final.State != StateDone {
		t.Fatalf("job after rejections = %+v", final)
	}
	if n, _ := exec.total(); n != g.Size() {
		t.Errorf("executed %d cells, want only the %d of the admitted job", n, g.Size())
	}
}

// TestResumeRefusesOversizedJournalSpec: a journal holding a spec past
// the submission limits (left by a daemon without them) fails that job
// at restart instead of running it, and the next restart does not
// resume it again.
func TestResumeRefusesOversizedJournalSpec(t *testing.T) {
	dir := t.TempDir()
	line := `{"op":"accepted","id":"job-000004","spec":{"grid":{"replicates":1099511627776,"seed":1}}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	exec := newExecCounter()
	s, client := startDaemon(t, Config{Runners: exec.runners, CacheDir: dir})
	st, err := s.Status("job-000004")
	if err != nil || st.State != StateFailed || !strings.Contains(st.Error, "over the limit") {
		t.Fatalf("oversized resumed job = %+v, %v; want failed over the limit", st, err)
	}
	if n := s.ResumedJobs(); n != 0 {
		t.Errorf("ResumedJobs = %d, want 0", n)
	}
	g := testGrid(8)
	next, err := client.Submit(context.Background(), JobSpec{Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "job-000005" {
		t.Errorf("next job ID = %s, want job-000005", next.ID)
	}
	if final := waitJob(t, client, next.ID); final.State != StateDone {
		t.Fatalf("job after the refused resume = %+v", final)
	}
	if n, _ := exec.total(); n != g.Size() {
		t.Errorf("executed %d cells, want only the %d of the submitted job", n, g.Size())
	}
	s.Close()
	jl, pending, err := openJournal(dir)
	if err != nil || len(pending) != 0 {
		t.Fatalf("journal after restart = %+v, %v; want nothing pending", pending, err)
	}
	jl.Close()
}
