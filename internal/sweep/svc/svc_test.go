package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"autofl/internal/rng"
	"autofl/internal/sim"
	"autofl/internal/sweep"
	"autofl/internal/sweep/dist"
)

// fakeRunner is a pure function of the cell seed — the svc-level twin
// of the dist tests' fake, standing in for a Scenario run.
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

func fakeRunners(rounds int, traced bool) sweep.Runner { return withTrace(fakeRunner, rounds, traced) }

// withTrace attaches a flat trace of the job's horizon to a traced
// job's outcomes: the cache stores only traced runs, and the flat
// trace makes each entry answer exactly that horizon with the fake's
// own scalars.
func withTrace(run sweep.Runner, rounds int, traced bool) sweep.Runner {
	if !traced {
		return run
	}
	return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		out, err := run(ctx, c, seed)
		z := make([]float64, rounds)
		out.Trace = &sweep.RunTrace{V: sweep.TraceVersion, Trace: sim.Trace{Sec: z, EnergyJ: z, ParticipantEnergyJ: z, Accuracy: z}}
		return out, err
	}
}

// execCounter wraps the fake runner with a per-cell execution count —
// the duplicate-execution audit the overlap tests assert on.
type execCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func newExecCounter() *execCounter { return &execCounter{counts: make(map[string]int)} }

func (e *execCounter) runners(rounds int, traced bool) sweep.Runner {
	return withTrace(func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		e.mu.Lock()
		e.counts[c.Key()]++
		e.mu.Unlock()
		return fakeRunner(ctx, c, seed)
	}, rounds, traced)
}

// total sums executions; duplicates counts cells executed > once.
func (e *execCounter) total() (n, duplicates int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.counts {
		n += c
		if c > 1 {
			duplicates++
		}
	}
	return n, duplicates
}

func testGrid(seed uint64, data ...string) sweep.Grid {
	if len(data) == 0 {
		data = []string{"iid"}
	}
	return sweep.Grid{
		Workloads:  []string{"CNN-MNIST"},
		Settings:   []string{"S3"},
		Data:       data,
		Policies:   []string{"FedAvg-Random", "AutoFL", "Power"},
		Replicates: 2,
		Seed:       seed,
	}
}

// serialJSON is the byte-identity baseline: a cold -parallel=1 local
// run of the grid.
func serialJSON(t *testing.T, g sweep.Grid) []byte {
	t.Helper()
	store, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := store.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// startDaemon runs a Service behind an httptest server and returns a
// client against it.
func startDaemon(t *testing.T, cfg Config) (*Service, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		srv.Close()
	})
	return s, &Client{BaseURL: srv.URL, HTTP: srv.Client()}
}

// startRegistry serves a registry on a loopback listener.
func startRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return reg
}

// registerWorker dials a register-mode worker into the registry and
// waits for it to join the pool.
func registerWorker(t *testing.T, reg *Registry, name string, runners dist.RunnerFor) *dist.Worker {
	t.Helper()
	w, err := dist.NewDialWorker(name, 2, runners)
	if err != nil {
		t.Fatal(err)
	}
	go w.Register(context.Background(), reg.Addr(), dist.RegisterOptions{
		MinBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
	})
	t.Cleanup(func() { w.Close() })
	return w
}

// waitWorkers polls until the registry holds n workers.
func waitWorkers(t *testing.T, reg *Registry, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Len() >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("registry never reached %d workers (have %d)", n, reg.Len())
}

// waitJob polls the client until the job is terminal.
func waitJob(t *testing.T, c *Client, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.Wait(ctx, id, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return st
}

// TestLocalServiceEndToEnd is the core service contract over HTTP:
// submit → poll → fetch, with the JSON and CSV result bytes identical
// to a cold serial run of the same grid.
func TestLocalServiceEndToEnd(t *testing.T) {
	g := testGrid(41, "iid", "noniid50")
	_, client := startDaemon(t, Config{Runners: fakeRunners, CacheDir: t.TempDir()})

	st, err := client.Submit(context.Background(), JobSpec{Grid: g, Rounds: 100, Name: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Total != g.Size() {
		t.Fatalf("submit status = %+v", st)
	}
	final := waitJob(t, client, st.ID)
	if final.State != StateDone || final.Done != g.Size() {
		t.Fatalf("final status = %+v", final)
	}
	if final.Name != "e2e" {
		t.Errorf("name dropped: %+v", final)
	}

	gotJSON, err := client.Result(context.Background(), st.ID, "json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, serialJSON(t, g)) {
		t.Error("service JSON differs from serial local run")
	}
	gotCSV, err := client.Result(context.Background(), st.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	var wantCSV bytes.Buffer
	serial.WriteCSV(&wantCSV)
	if !bytes.Equal(gotCSV, wantCSV.Bytes()) {
		t.Error("service CSV differs from serial local run")
	}
}

// TestRegisteredWorkersServeSubmission runs the full control-plane
// path: register-mode workers dial the registry, a submitted grid
// executes entirely on them, and the result is byte-identical to
// serial.
func TestRegisteredWorkersServeSubmission(t *testing.T) {
	g := testGrid(42, "iid", "noniid50")
	reg := startRegistry(t)
	counter := newExecCounter()
	registerWorker(t, reg, "w1", counter.runners)
	registerWorker(t, reg, "w2", counter.runners)
	waitWorkers(t, reg, 2)

	// The service-side Runners must never run in registry mode.
	banned := func(rounds int, traced bool) sweep.Runner {
		return func(context.Context, sweep.Cell, uint64) (sweep.Outcome, error) {
			t.Error("cell executed locally in registry mode")
			return sweep.Outcome{}, errors.New("local execution")
		}
	}
	_, client := startDaemon(t, Config{Runners: banned, Registry: reg, CacheDir: t.TempDir()})

	st, err := client.Submit(context.Background(), JobSpec{Grid: g, Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, client, st.ID)
	if final.State != StateDone {
		t.Fatalf("final status = %+v", final)
	}
	sum := 0
	for _, n := range final.Workers {
		sum += n
	}
	if sum != g.Size() {
		t.Errorf("worker counts %v do not sum to %d", final.Workers, g.Size())
	}
	got, err := client.Result(context.Background(), st.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialJSON(t, g)) {
		t.Error("daemon result differs from serial local run")
	}
	workers, err := client.Workers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 2 || workers[0].Name != "w1" || workers[1].Name != "w2" {
		t.Errorf("workers = %+v", workers)
	}
}

// TestOverlappingSubmissionsShareCache is the shared-store acceptance
// criterion: two clients submit overlapping grids; both results are
// byte-identical to cold serial runs, the overlap is served from the
// cache (hits > 0 on the later job), and no cell executes twice.
func TestOverlappingSubmissionsShareCache(t *testing.T) {
	const seed = 77
	g1 := testGrid(seed, "iid", "noniid50")
	g2 := testGrid(seed, "iid", "dir03") // shares every data=iid cell with g1
	reg := startRegistry(t)
	counter := newExecCounter()
	registerWorker(t, reg, "w1", counter.runners)
	registerWorker(t, reg, "w2", counter.runners)
	waitWorkers(t, reg, 2)

	_, client := startDaemon(t, Config{Runners: fakeRunners, Registry: reg, CacheDir: t.TempDir(), MaxConcurrent: 1})

	// Two clients, concurrently; MaxConcurrent=1 serializes execution
	// so whichever job runs second sees the first's commits.
	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i, g := range []sweep.Grid{g1, g2} {
		wg.Add(1)
		go func(i int, g sweep.Grid) {
			defer wg.Done()
			st, err := client.Submit(context.Background(), JobSpec{Grid: g, Rounds: 100})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i, g)
	}
	wg.Wait()
	finals := []JobStatus{waitJob(t, client, ids[0]), waitJob(t, client, ids[1])}

	for i, g := range []sweep.Grid{g1, g2} {
		if finals[i].State != StateDone {
			t.Fatalf("job %d: %+v", i, finals[i])
		}
		got, err := client.Result(context.Background(), ids[i], "")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, serialJSON(t, g)) {
			t.Errorf("job %d result differs from cold serial run", i)
		}
	}

	overlap := testGrid(seed, "iid").Size()
	union := g1.Size() + g2.Size() - overlap
	n, dups := counter.total()
	if n != union {
		t.Errorf("executed %d cells, want exactly the %d-cell union", n, union)
	}
	if dups != 0 {
		t.Errorf("%d cells executed more than once", dups)
	}
	if hits := finals[0].CacheHits + finals[1].CacheHits; hits != overlap {
		t.Errorf("cache hits = %d, want the %d-cell overlap", hits, overlap)
	}
}

// TestWorkerDeathAndMidSweepJoin covers the registry lifecycle under a
// running job: one worker dies mid-grid (its cells re-queue), a fresh
// worker joins mid-sweep and picks up queued cells, and the job still
// completes byte-identically.
func TestWorkerDeathAndMidSweepJoin(t *testing.T) {
	g := testGrid(43, "iid", "noniid50", "dir03")
	reg := startRegistry(t)

	var dying *dist.Worker
	var fired sync.Once
	joined := make(chan struct{})
	dyingRunners := func(rounds int, traced bool) sweep.Runner {
		return withTrace(func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			fired.Do(func() {
				go func() {
					dying.Close() // death mid-grid
					close(joined)
				}()
			})
			return fakeRunner(ctx, c, seed)
		}, rounds, traced)
	}
	dying = registerWorker(t, reg, "dying", dyingRunners)
	waitWorkers(t, reg, 1)

	_, client := startDaemon(t, Config{Runners: fakeRunners, Registry: reg, CacheDir: t.TempDir()})
	st, err := client.Submit(context.Background(), JobSpec{Grid: g, Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	// The replacement registers only after the first worker died, so
	// it necessarily joins mid-sweep.
	<-joined
	registerWorker(t, reg, "replacement", fakeRunners)

	final := waitJob(t, client, st.ID)
	if final.State != StateDone || final.Done != g.Size() {
		t.Fatalf("final status = %+v", final)
	}
	if final.Workers["replacement"] == 0 {
		t.Errorf("mid-sweep joiner served nothing: %v", final.Workers)
	}
	got, err := client.Result(context.Background(), st.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialJSON(t, g)) {
		t.Error("result differs from serial after worker death + re-join")
	}
	// The daemon's lifetime total is the sum over its jobs: here, this
	// job's own count.
	if n := metric(t, client, "autofl_sweepd_requeues_total"); n != final.Requeues {
		t.Errorf("requeues_total = %d, job requeues = %d", n, final.Requeues)
	}
}

// TestRegistryMaintainStaticWorker pins the dial-out bootstrap: a
// legacy listen-mode worker named by address joins the pool via
// Maintain and serves a job.
func TestRegistryMaintainStaticWorker(t *testing.T) {
	w, err := dist.NewWorker("127.0.0.1:0", 2, fakeRunners)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	t.Cleanup(func() { w.Close() })

	reg := NewRegistry()
	t.Cleanup(func() { reg.Close() })
	reg.Maintain(w.Addr())
	waitWorkers(t, reg, 1)

	g := testGrid(44)
	_, client := startDaemon(t, Config{Runners: fakeRunners, Registry: reg})
	st, err := client.Submit(context.Background(), JobSpec{Grid: g, Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, client, st.ID); final.State != StateDone {
		t.Fatalf("final status = %+v", final)
	}
}

// gatedRunners blocks cells of the "slow" workload until the gate
// opens (or the cell's context is canceled).
func gatedRunners(gate chan struct{}) dist.RunnerFor {
	return func(rounds int, traced bool) sweep.Runner {
		return withTrace(func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			if c.Workload == "slow" {
				select {
				case <-gate:
				case <-ctx.Done():
					return sweep.Outcome{}, ctx.Err()
				}
			}
			return fakeRunner(ctx, c, seed)
		}, rounds, traced)
	}
}

// TestQueueBackpressureAndCancel exercises the bounded queue and both
// cancellation paths.
func TestQueueBackpressureAndCancel(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	slow := sweep.Grid{Workloads: []string{"slow"}, Replicates: 1, Seed: 1}
	s, client := startDaemon(t, Config{Runners: gatedRunners(gate), QueueLimit: 1, MaxConcurrent: 1})

	running, err := client.Submit(context.Background(), JobSpec{Grid: slow, Name: "running"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it actually occupies the grid slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := client.Status(context.Background(), running.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	queued, err := client.Submit(context.Background(), JobSpec{Grid: testGrid(2), Name: "queued"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(context.Background(), JobSpec{Grid: testGrid(3)}); err == nil {
		t.Fatal("third submission must hit the queue bound")
	} else if apiErr := new(APIError); !errors.As(err, &apiErr) || apiErr.Code != 429 {
		t.Fatalf("queue-full error = %v, want 429", err)
	}

	// Cancel the queued job: it must go terminal without running.
	if st, err := client.Cancel(context.Background(), queued.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: %+v, %v", st, err)
	}
	// Cancel the running job: the gate never opens for it, so only
	// cancellation can finish it.
	if _, err := client.Cancel(context.Background(), running.ID); err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, client, running.ID); final.State != StateCanceled {
		t.Fatalf("canceled running job = %+v", final)
	}
	if _, err := client.Result(context.Background(), running.ID, ""); err == nil {
		t.Fatal("result of a canceled job must not be served")
	} else if apiErr := new(APIError); !errors.As(err, &apiErr) || apiErr.Code != 409 {
		t.Fatalf("unfinished-result error = %v, want 409", err)
	}
	_ = s
}

// TestDrainPersistsQueueAndResumes is the graceful-shutdown contract:
// drain refuses new submissions with 503, cancels the running grid at
// the deadline, leaves the queued job open in the journal, and a fresh
// service over the same cache dir resumes it under its original ID.
func TestDrainPersistsQueueAndResumes(t *testing.T) {
	cacheDir := t.TempDir()
	gate := make(chan struct{})
	slow := sweep.Grid{Workloads: []string{"slow"}, Replicates: 1, Seed: 5}
	resumable := testGrid(6)

	s, client := startDaemon(t, Config{Runners: gatedRunners(gate), CacheDir: cacheDir, MaxConcurrent: 1})
	running, err := client.Submit(context.Background(), JobSpec{Grid: slow})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := client.Submit(context.Background(), JobSpec{Grid: resumable, Name: "resume-me"})
	if err != nil {
		t.Fatal(err)
	}
	// Drain only once the slow job holds the grid slot; drained sooner,
	// it would still be queued and resume too.
	for wait := time.Now(); ; time.Sleep(time.Millisecond) {
		if st, _ := s.Status(running.ID); st.State == StateRunning {
			break
		}
		if time.Since(wait) > 10*time.Second {
			t.Fatal("slow job never started")
		}
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(drainCtx) }()

	// While draining: healthz 503 and submissions refused with 503.
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := client.Submit(context.Background(), JobSpec{Grid: testGrid(7)}); err == nil {
		t.Fatal("draining daemon accepted a submission")
	} else if apiErr := new(APIError); !errors.As(err, &apiErr) || apiErr.Code != 503 {
		t.Fatalf("draining error = %v, want 503", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The running job was canceled at the deadline; the queued one was
	// left for the next daemon, not run.
	if st, _ := s.Status(running.ID); st.State != StateCanceled {
		t.Errorf("running job after drain = %+v", st)
	}
	if st, _ := s.Status(queued.ID); st.State != StateCanceled || !strings.Contains(st.Error, "resumes on restart") {
		t.Errorf("queued job after drain = %+v", st)
	}
	// The journal is the only persistence: no drain file is written.
	if _, err := os.Stat(filepath.Join(cacheDir, "queued-jobs.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("drain wrote a queue file: %v", err)
	}

	// A fresh daemon over the same cache dir resumes the job under its
	// original ID.
	s2, client2 := startDaemon(t, Config{Runners: fakeRunners, CacheDir: cacheDir})
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].ID != queued.ID || jobs[0].Name != "resume-me" {
		t.Fatalf("resumed jobs = %+v, want %s only", jobs, queued.ID)
	}
	final := waitJob(t, client2, jobs[0].ID)
	if final.State != StateDone {
		t.Fatalf("resumed job = %+v", final)
	}
	got, err := client2.Result(context.Background(), jobs[0].ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialJSON(t, resumable)) {
		t.Error("resumed job result differs from serial")
	}
}

// TestHTTPErrors pins the error envelope: unknown job 404, bad spec
// 400, result of an unfinished job 409.
func TestHTTPErrors(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	_, client := startDaemon(t, Config{Runners: gatedRunners(gate)})

	if _, err := client.Status(context.Background(), "job-999999"); err == nil {
		t.Fatal("unknown job must 404")
	} else if apiErr := new(APIError); !errors.As(err, &apiErr) || apiErr.Code != 404 {
		t.Fatalf("unknown-job error = %v, want 404", err)
	}

	resp, err := client.http().Post(client.BaseURL+"/v1/sweeps", "application/json", strings.NewReader(`{"grid": {"seed": "not-a-number"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad spec status = %d, want 400", resp.StatusCode)
	}

	slow := sweep.Grid{Workloads: []string{"slow"}, Replicates: 1, Seed: 9}
	st, err := client.Submit(context.Background(), JobSpec{Grid: slow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Result(context.Background(), st.ID, ""); err == nil {
		t.Fatal("unfinished result must 409")
	} else if apiErr := new(APIError); !errors.As(err, &apiErr) || apiErr.Code != 409 {
		t.Fatalf("unfinished-result error = %v, want 409", err)
	}
}

// TestMetricsAndHealth smoke-tests the observability endpoints.
func TestMetricsAndHealth(t *testing.T) {
	_, client := startDaemon(t, Config{Runners: fakeRunners})
	st, err := client.Submit(context.Background(), JobSpec{Grid: testGrid(11)})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, client, st.ID)

	resp, err := client.http().Get(client.BaseURL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	resp, err = client.http().Get(client.BaseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.String()
	if !strings.Contains(body, `autofl_sweepd_jobs{state="done"} 1`) {
		t.Errorf("metrics missing done-job count:\n%s", body)
	}
	if !strings.Contains(body, "autofl_sweepd_workers 0") {
		t.Errorf("metrics missing worker gauge:\n%s", body)
	}
}

// metric scrapes /v1/metrics and returns one counter's value.
func metric(t *testing.T, c *Client, name string) int {
	t.Helper()
	resp, err := c.http().Get(c.BaseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("metrics missing %s:\n%s", name, raw)
	return 0
}

// TestLocalFailedCellCounted: a local-mode job with one erroring cell
// completes with that hole in its status, and the daemon's lifetime
// failed-cell total counts it.
func TestLocalFailedCellCounted(t *testing.T) {
	g := testGrid(12)
	bad := g.Cells()[0].Key()
	runners := func(rounds int, traced bool) sweep.Runner {
		return withTrace(func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			if c.Key() == bad {
				return sweep.Outcome{}, errors.New("injected cell failure")
			}
			return fakeRunner(ctx, c, seed)
		}, rounds, traced)
	}
	_, client := startDaemon(t, Config{Runners: runners})
	st, err := client.Submit(context.Background(), JobSpec{Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, client, st.ID)
	if final.State != StateDone || final.FailedCells != 1 {
		t.Fatalf("final status = %+v, want done with 1 failed cell", final)
	}
	if n := metric(t, client, "autofl_sweepd_failed_cells_total"); n != final.FailedCells {
		t.Errorf("failed_cells_total = %d, job failed cells = %d", n, final.FailedCells)
	}
}

// TestJobStatusWireFormat pins the JobStatus JSON bytes, fully
// populated and zero: field names, order and omissions are the API.
func TestJobStatusWireFormat(t *testing.T) {
	at := time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC)
	later := at.Add(90 * time.Second)
	var full JobStatus
	full.ID, full.Name, full.State = "job-000007", "nightly", StateDone
	full.Rounds, full.Total, full.Done = 200, 12, 11
	full.CacheHits, full.CachePrefixHits, full.CacheMisses = 4, 2, 8
	full.Requeues, full.Quarantined, full.FailedCells = 3, 1, 1
	full.Workers = map[string]int{"w2": 5, "w1": 3}
	full.Error = "boom"
	full.SubmittedAt, full.StartedAt, full.FinishedAt = at, &at, &later
	for _, tc := range []struct {
		name string
		st   JobStatus
		want string
	}{
		{"populated", full, `{"id":"job-000007","name":"nightly","state":"done","rounds":200,"total":12,"done":11,` +
			`"cache_hits":4,"cache_prefix_hits":2,"cache_misses":8,"requeues":3,"quarantined":1,"failed_cells":1,` +
			`"workers":{"w1":3,"w2":5},"error":"boom","submitted_at":"2024-05-06T07:08:09Z",` +
			`"started_at":"2024-05-06T07:08:09Z","finished_at":"2024-05-06T07:09:39Z"}`},
		{"zero", JobStatus{}, `{"id":"","state":"","rounds":0,"total":0,"done":0,"cache_hits":0,"cache_misses":0,` +
			`"submitted_at":"0001-01-01T00:00:00Z"}`},
	} {
		got, err := json.Marshal(tc.st)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s JobStatus JSON:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestServiceLifecycleNoGoroutineLeaks runs repeated full daemon
// cycles — registry, workers, service, a served job, teardown — and
// checks the goroutine count returns to baseline.
func TestServiceLifecycleNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		reg := NewRegistry()
		if _, err := reg.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		w, err := dist.NewDialWorker("leakcheck", 2, fakeRunners)
		if err != nil {
			t.Fatal(err)
		}
		regCtx, stopReg := context.WithCancel(context.Background())
		go w.Register(regCtx, reg.Addr(), dist.RegisterOptions{MinBackoff: 5 * time.Millisecond})
		waitWorkers(t, reg, 1)

		s, err := New(Config{Runners: fakeRunners, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Submit(JobSpec{Grid: testGrid(uint64(20 + i)), Rounds: 100})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			cur, _ := s.Status(st.ID)
			if Terminal(cur.State) {
				if cur.State != StateDone {
					t.Fatalf("cycle %d job = %+v", i, cur)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("job never finished")
			}
			time.Sleep(2 * time.Millisecond)
		}
		s.Close()
		stopReg()
		w.Close()
		reg.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked across daemon cycles: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
