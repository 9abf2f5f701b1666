package dist

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autofl/internal/rng"
	"autofl/internal/sim"
	"autofl/internal/sweep"
	"autofl/internal/sweep/cache"
)

// testGrid is a 24-cell grid matching the engine tests' shape: enough
// cells for both workers to claim real work.
func testGrid() sweep.Grid {
	return sweep.Grid{
		Workloads:  []string{"CNN-MNIST"},
		Settings:   []string{"S3"},
		Data:       []string{"iid", "noniid50"},
		Envs:       []string{"ideal", "field"},
		Policies:   []string{"FedAvg-Random", "AutoFL", "Power"},
		Replicates: 1,
		Seed:       777,
	}
}

// fakeRunner is a pure function of the cell seed, standing in for a
// Scenario run on either side of the wire.
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

// fakeRunners serves fakeRunner, with a flat trace of the job's
// horizon on traced jobs: the cache stores only traced runs, and the
// flat trace makes each entry answer exactly that horizon with the
// fake's own scalars.
func fakeRunners(rounds int, traced bool) sweep.Runner {
	if !traced {
		return fakeRunner
	}
	return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		out, err := fakeRunner(ctx, c, seed)
		z := make([]float64, rounds)
		out.Trace = &sweep.RunTrace{V: sweep.TraceVersion, Trace: sim.Trace{Sec: z, EnergyJ: z, ParticipantEnergyJ: z, Accuracy: z}}
		return out, err
	}
}

// noLocal is the engine-side runner for distributed runs: any local
// execution is a test failure (and an errored cell, which would also
// break byte-identity).
func noLocal(t *testing.T) sweep.Runner {
	return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		t.Errorf("cell %s executed locally in distributed mode", c.Key())
		return sweep.Outcome{}, errors.New("local execution in distributed mode")
	}
}

// startWorker spins up a loopback worker on its own goroutine.
func startWorker(t *testing.T, parallel int, runners RunnerFor) *Worker {
	t.Helper()
	w, err := NewWorker("127.0.0.1:0", parallel, runners)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	t.Cleanup(func() { w.Close() })
	return w
}

func storeJSON(t *testing.T, s *sweep.ResultStore) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	job := Job{ID: 7, Cell: sweep.Cell{Workload: "CNN-MNIST", Policy: "AutoFL"}, Seed: 42, Rounds: 100, Traced: true, Digest: "abc"}
	if err := writeMessage(&buf, message{Kind: kindJob, Job: &job}); err != nil {
		t.Fatal(err)
	}
	m, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != kindJob || m.Job == nil || *m.Job != job {
		t.Fatalf("round-trip mismatch: %+v", m)
	}

	// A corrupt length prefix must be rejected, not allocated.
	bad := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0})
	if _, err := readMessage(bad); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized frame accepted: %v", err)
	}
}

// gatedRunnerPair returns fakeRunners for two workers, each holding
// every cell until the other worker has started one. Instant runners
// let whichever worker links first drain the grid; the gate makes both
// workers claim a cell on every run. A worker still waiting when gate
// ends runs its cells anyway, so a coordinator that never dispatches to
// the other worker fails the test's assertions instead of hanging it.
func gatedRunnerPair(gate context.Context) (RunnerFor, RunnerFor) {
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var once [2]sync.Once
	runners := func(self int) RunnerFor {
		return func(int, bool) sweep.Runner {
			return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
				once[self].Do(func() { close(started[self]) })
				select {
				case <-started[1-self]:
				case <-gate.Done():
				case <-ctx.Done():
				}
				return fakeRunner(ctx, c, seed)
			}
		}
	}
	return runners(0), runners(1)
}

// TestLoopbackDistributedSweep is the core distributed guarantee: a
// coordinator plus two in-process workers produce byte-identical
// output to a serial local run, with every cell executed remotely.
func TestLoopbackDistributedSweep(t *testing.T) {
	g := testGrid()
	serial, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	gate, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r1, r2 := gatedRunnerPair(gate)
	w1 := startWorker(t, 2, r1)
	w2 := startWorker(t, 2, r2)
	re := &PoolExecutor{Source: Dial([]string{w1.Addr(), w2.Addr()}, LinkOptions{}), Rounds: 100}
	dist, err := sweep.Run(context.Background(), g, noLocal(t), sweep.Options{Executor: re})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeJSON(t, serial), storeJSON(t, dist)) {
		t.Error("distributed JSON differs from serial local JSON")
	}

	counts := AuditOf(nil, re, nil).Workers
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != g.Size() {
		t.Errorf("per-worker counts sum to %d, want %d (counts: %v)", total, g.Size(), counts)
	}
	// A worker counts a cell as served after sending its result, so
	// the coordinator can finish first: Close waits for the handlers.
	w1.Close()
	w2.Close()
	if w1.Served()+w2.Served() != g.Size() {
		t.Errorf("workers served %d+%d cells, want %d", w1.Served(), w2.Served(), g.Size())
	}
	if len(counts) != 2 || counts[w1.Addr()] == 0 || counts[w2.Addr()] == 0 {
		t.Errorf("both workers should claim cells on a 24-cell grid: %v", counts)
	}
}

// TestWorkerDeathRequeues kills one of two workers mid-grid: its
// claimed cells must be re-queued to the survivor, the sweep must
// complete every cell, and the bytes must still match a serial run.
func TestWorkerDeathRequeues(t *testing.T) {
	g := testGrid()
	serial, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	w1 := startWorker(t, 2, fakeRunners)
	var w2 *Worker
	var executed int32
	dying := func(rounds int, traced bool) sweep.Runner {
		return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			if atomic.AddInt32(&executed, 1) == 4 {
				go w2.Close() // async: Close waits for handlers, so a synchronous call would deadlock
			}
			return fakeRunner(ctx, c, seed)
		}
	}
	w2 = startWorker(t, 1, dying)

	re := &PoolExecutor{Source: Dial([]string{w1.Addr(), w2.Addr()}, LinkOptions{}), Rounds: 100}
	dist, err := sweep.Run(context.Background(), g, noLocal(t), sweep.Options{Executor: re})
	if err != nil {
		t.Fatalf("sweep must survive a worker death: %v", err)
	}
	if dist.Len() != g.Size() {
		t.Fatalf("completed %d of %d cells after worker death", dist.Len(), g.Size())
	}
	if !bytes.Equal(storeJSON(t, serial), storeJSON(t, dist)) {
		t.Error("post-death distributed JSON differs from serial local JSON")
	}
}

// TestDistributedCacheCommit pins the shared-cache path: a cold
// distributed run misses and commits every cell by digest; a second
// distributed run against the same cache serves everything locally
// without dialing a single worker (the addresses are unroutable on
// purpose).
func TestDistributedCacheCommit(t *testing.T) {
	g := testGrid()
	sig := cache.Signature{GridSeed: g.Seed, Rounds: 100}
	dir := t.TempDir()

	cold, err := cache.Open(dir, sig)
	if err != nil {
		t.Fatal(err)
	}
	w := startWorker(t, 0, fakeRunners)
	re := &PoolExecutor{Source: Dial([]string{w.Addr()}, LinkOptions{}), Rounds: sig.Rounds, Cache: cold}
	coldStore, err := sweep.Run(context.Background(), g, noLocal(t), sweep.Options{Executor: re})
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != g.Size() {
		t.Errorf("cold distributed stats = %+v, want %d misses", st, g.Size())
	}
	if cold.Len() != g.Size() {
		t.Errorf("cache committed %d of %d remote results", cold.Len(), g.Size())
	}
	for _, r := range coldStore.Results() {
		if !cold.Has(r.Cell) {
			t.Errorf("cell %s missing from cache after remote commit", r.Cell.Key())
		}
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := cache.Open(dir, sig)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	// Unroutable workers: if the warm run dials at all, it fails loudly.
	reWarm := &PoolExecutor{Source: Dial([]string{"127.0.0.1:1"}, LinkOptions{HandshakeTimeout: time.Second}), Rounds: sig.Rounds, Cache: warm}
	warmStore, err := sweep.Run(context.Background(), g, noLocal(t), sweep.Options{Executor: reWarm})
	if err != nil {
		t.Fatalf("fully cached distributed run must not dial: %v", err)
	}
	if st := warm.Stats(); st.Hits != g.Size() || st.Misses != 0 {
		t.Errorf("warm distributed stats = %+v", st)
	}
	if !bytes.Equal(storeJSON(t, coldStore), storeJSON(t, warmStore)) {
		t.Error("warm distributed JSON differs from cold distributed JSON")
	}
}

func TestAllWorkersUnreachable(t *testing.T) {
	g := testGrid()
	re := &PoolExecutor{Source: Dial([]string{"127.0.0.1:1"}, LinkOptions{HandshakeTimeout: time.Second}), Rounds: 10}
	store, err := sweep.Run(context.Background(), g, noLocal(t), sweep.Options{Executor: re})
	if err == nil {
		t.Fatal("sweep with no reachable workers must fail")
	}
	if store.Len() != 0 {
		t.Errorf("no cells should complete, got %d", store.Len())
	}
}

func TestNoAddresses(t *testing.T) {
	re := &PoolExecutor{Source: Dial(nil, LinkOptions{})}
	if _, err := sweep.Run(context.Background(), testGrid(), noLocal(t), sweep.Options{Executor: re}); err == nil {
		t.Fatal("empty address list must fail")
	}
}

// TestHandshakeRejectsVersionMismatch dials an endpoint speaking a
// future protocol version; the coordinator must refuse it.
func TestHandshakeRejectsVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		writeMessage(conn, message{Kind: kindHello, Hello: &Hello{Version: ProtocolVersion + 1, Capacity: 1}})
		time.Sleep(2 * time.Second)
		conn.Close()
	}()

	re := &PoolExecutor{Source: Dial([]string{ln.Addr().String()}, LinkOptions{HandshakeTimeout: 2 * time.Second}), Rounds: 10}
	_, err = sweep.Run(context.Background(), testGrid(), noLocal(t), sweep.Options{Executor: re})
	if err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Fatalf("version mismatch not rejected: %v", err)
	}
}

// TestSilentAddressDoesNotHoldSweep pins the abandoned handshake: one
// address is a worker, the other accepts connections but never sends
// a hello. The worker finishes every cell within milliseconds, and the
// sweep must return then — not after the silent address's handshake
// timeout.
func TestSilentAddressDoesNotHoldSweep(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var silent []net.Conn
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range silent {
			c.Close()
		}
	}()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			silent = append(silent, conn)
			mu.Unlock()
		}
	}()

	g := testGrid()
	w := startWorker(t, 2, fakeRunners)
	const handshake = 3 * time.Second
	pe := &PoolExecutor{Source: Dial([]string{w.Addr(), ln.Addr().String()}, LinkOptions{HandshakeTimeout: handshake}), Rounds: 10}
	start := time.Now()
	store, err := sweep.Run(context.Background(), g, noLocal(t), sweep.Options{Executor: pe})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != g.Size() {
		t.Fatalf("completed %d of %d cells", store.Len(), g.Size())
	}
	if elapsed > handshake/3 {
		t.Errorf("sweep returned after %s: the silent address's pending handshake held it open", elapsed)
	}
}

// TestDistributedCancellation cancels mid-sweep: the coordinator
// returns the context error with the partial results intact, and the
// worker survives for the next sweep.
func TestDistributedCancellation(t *testing.T) {
	g := testGrid()
	ctx, cancel := context.WithCancel(context.Background())
	var executed int32
	slow := func(rounds int, traced bool) sweep.Runner {
		return func(c context.Context, cell sweep.Cell, seed uint64) (sweep.Outcome, error) {
			if atomic.AddInt32(&executed, 1) == 3 {
				cancel()
			}
			time.Sleep(10 * time.Millisecond)
			return fakeRunner(c, cell, seed)
		}
	}
	w := startWorker(t, 1, slow)
	re := &PoolExecutor{Source: Dial([]string{w.Addr()}, LinkOptions{}), Rounds: 10}
	store, err := sweep.Run(ctx, g, noLocal(t), sweep.Options{Executor: re})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if store.Len() >= g.Size() {
		t.Errorf("cancellation did not stop the sweep: %d cells", store.Len())
	}

	// The worker is still usable after the canceled coordinator left.
	re2 := &PoolExecutor{Source: Dial([]string{w.Addr()}, LinkOptions{}), Rounds: 10}
	again, err := sweep.Run(context.Background(), g, noLocal(t), sweep.Options{Executor: re2})
	if err != nil {
		t.Fatalf("worker unusable after canceled sweep: %v", err)
	}
	if again.Len() != g.Size() {
		t.Errorf("second sweep completed %d of %d cells", again.Len(), g.Size())
	}
}

// TestUndeliverableResultFailsLoudly pins the no-hang guarantee: a
// result the worker cannot frame (NaN is unrepresentable in JSON, so
// the marshal fails) must break the connection — re-queuing the cell
// and, with no surviving worker able to deliver it either, failing the
// sweep — rather than silently dropping the job and deadlocking the
// coordinator.
func TestUndeliverableResultFailsLoudly(t *testing.T) {
	nan := func(rounds int, traced bool) sweep.Runner {
		return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			return sweep.Outcome{FinalAccuracy: math.NaN()}, nil
		}
	}
	w := startWorker(t, 1, nan)
	re := &PoolExecutor{Source: Dial([]string{w.Addr()}, LinkOptions{HandshakeTimeout: time.Second}), Rounds: 10}

	type res struct {
		store *sweep.ResultStore
		err   error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := sweep.Run(context.Background(), testGrid(), noLocal(t), sweep.Options{Executor: re})
		ch <- res{s, err}
	}()
	select {
	case r := <-ch:
		if r.err == nil {
			t.Error("a sweep whose results can never be delivered must fail, not succeed")
		}
		if r.store.Len() != 0 {
			t.Errorf("%d cells completed despite undeliverable results", r.store.Len())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung on an undeliverable result")
	}
}

// TestWorkerCloseUnblocksServe pins the worker's graceful shutdown:
// Close unblocks Serve with ErrWorkerClosed.
func TestWorkerCloseUnblocksServe(t *testing.T) {
	w, err := NewWorker("127.0.0.1:0", 1, fakeRunners)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()
	time.Sleep(20 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, ErrWorkerClosed) {
			t.Errorf("Serve returned %v, want ErrWorkerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// ---- control-plane primitives (PR 6) ----

// chanSource is a minimal Source: a buffered pool of links, eviction
// recorded for assertions.
type chanSource struct {
	pool    chan *Link
	mu      sync.Mutex
	evicted []error
}

func newChanSource() *chanSource { return &chanSource{pool: make(chan *Link, 16)} }

func (s *chanSource) Acquire(ctx context.Context) (*Link, error) {
	select {
	case l := <-s.pool:
		return l, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
func (s *chanSource) Release(l *Link) { s.pool <- l }
func (s *chanSource) Evict(l *Link, err error) {
	l.Close()
	s.mu.Lock()
	s.evicted = append(s.evicted, err)
	s.mu.Unlock()
}
func (s *chanSource) evictions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.evicted)
}

// acceptLink is the daemon side of one worker registration: accept the
// dial-in, handshake, return the established link.
func acceptLink(t *testing.T, ln net.Listener) *Link {
	t.Helper()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	l, err := NewLink(conn, LinkOptions{HandshakeTimeout: 5 * time.Second})
	if err != nil {
		conn.Close()
		t.Fatalf("handshake: %v", err)
	}
	return l
}

// registerWorker spins up a dial-out worker registering against ln's
// address and hands back the accepted link.
func registerWorker(t *testing.T, ln net.Listener, name string, parallel int, runners RunnerFor) (*Worker, *Link) {
	t.Helper()
	w, err := NewDialWorker(name, parallel, runners)
	if err != nil {
		t.Fatal(err)
	}
	go w.Register(context.Background(), ln.Addr().String(), RegisterOptions{
		MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	t.Cleanup(func() { w.Close() })
	return w, acceptLink(t, ln)
}

func TestParseWorkerList(t *testing.T) {
	got, err := ParseWorkerList(" a:1, ,b:2 ")
	if err != nil || len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("inline list = %v, %v", got, err)
	}
	f := filepath.Join(t.TempDir(), "fleet")
	body := "# fleet file\nhost-a:7070\n\nhost-b:7070  # rack 2\n"
	if err := os.WriteFile(f, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ParseWorkerList("@" + f)
	if err != nil || len(got) != 2 || got[0] != "host-a:7070" || got[1] != "host-b:7070" {
		t.Fatalf("file list = %v, %v", got, err)
	}
	if _, err := ParseWorkerList("@" + f + ".missing"); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestRegisteredWorkerSweep is the registration-direction counterpart
// of TestLoopbackDistributedSweep: workers dial in, the control plane
// accepts them into a pool, and a PoolExecutor sweep over the pool is
// byte-identical to a serial local run.
func TestRegisteredWorkerSweep(t *testing.T) {
	g := testGrid()
	serial, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	src := newChanSource()
	_, l1 := registerWorker(t, ln, "w1", 2, fakeRunners)
	_, l2 := registerWorker(t, ln, "w2", 2, fakeRunners)
	if l1.Name() != "w1" || l2.Name() != "w2" {
		t.Fatalf("advertised names = %q, %q", l1.Name(), l2.Name())
	}
	src.pool <- l1
	src.pool <- l2

	pe := &PoolExecutor{Source: src, Rounds: 100}
	store, err := sweep.Run(context.Background(), g, noLocal(t), sweep.Options{Executor: pe})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeJSON(t, serial), storeJSON(t, store)) {
		t.Error("registered-worker sweep JSON differs from serial")
	}
	counts := AuditOf(nil, pe, nil).Workers
	if counts["w1"]+counts["w2"] != g.Size() {
		t.Errorf("counts %v do not sum to %d", counts, g.Size())
	}
	if len(src.pool) != 2 {
		t.Errorf("links not released back to the pool: %d", len(src.pool))
	}
	if src.evictions() != 0 {
		t.Errorf("healthy links evicted: %v", src.evicted)
	}
}

// TestPoolExecutorMidSweepJoin starts the sweep with an empty pool —
// it must wait, not fail — and registers a worker afterwards, which
// picks up the queued cells.
func TestPoolExecutorMidSweepJoin(t *testing.T) {
	g := testGrid()
	serial, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	src := newChanSource()
	pe := &PoolExecutor{Source: src, Rounds: 100}

	type res struct {
		store *sweep.ResultStore
		err   error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := sweep.Run(context.Background(), g, noLocal(t), sweep.Options{Executor: pe})
		ch <- res{s, err}
	}()
	// Late join: the sweep is already executing (blocked on Acquire).
	_, l := registerWorker(t, ln, "late", 2, fakeRunners)
	src.pool <- l

	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !bytes.Equal(storeJSON(t, serial), storeJSON(t, r.store)) {
			t.Error("mid-sweep-join JSON differs from serial")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not complete after mid-sweep join")
	}
}

// TestPoolExecutorWorkerDeathRequeues kills one of two registered
// workers mid-grid: its in-flight cells re-queue to the survivor and
// the dead link is evicted, not released.
func TestPoolExecutorWorkerDeathRequeues(t *testing.T) {
	g := testGrid()
	serial, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	src := newChanSource()
	// The survivor holds its cells until the dying worker has taken its
	// third, so it cannot drain the grid before the death.
	gate, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dead := make(chan struct{})
	survivorRunners := func(rounds int, traced bool) sweep.Runner {
		return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			select {
			case <-dead:
			case <-gate.Done():
			case <-ctx.Done():
			}
			return fakeRunner(ctx, c, seed)
		}
	}
	_, l1 := registerWorker(t, ln, "survivor", 2, survivorRunners)
	var dying *Worker
	var executed int32
	dyingRunners := func(rounds int, traced bool) sweep.Runner {
		return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			if atomic.AddInt32(&executed, 1) == 3 {
				// Die holding this cell: Close cancels ctx, and a worker
				// drops results finished after cancellation, so the cell
				// can only complete by re-queuing off the dead link.
				close(dead)
				go dying.Close()
				<-ctx.Done()
			}
			return fakeRunner(ctx, c, seed)
		}
	}
	var l2 *Link
	dying, l2 = registerWorker(t, ln, "dying", 1, dyingRunners)
	src.pool <- l1
	src.pool <- l2

	pe := &PoolExecutor{Source: src, Rounds: 100}
	store, err := sweep.Run(context.Background(), g, noLocal(t), sweep.Options{Executor: pe})
	if err != nil {
		t.Fatalf("sweep must survive a worker death: %v", err)
	}
	if store.Len() != g.Size() {
		t.Fatalf("completed %d of %d cells", store.Len(), g.Size())
	}
	if !bytes.Equal(storeJSON(t, serial), storeJSON(t, store)) {
		t.Error("post-death pool JSON differs from serial")
	}
	// The dying worker re-registers (its Register loop is still
	// running), so the registry-side listener sees a fresh dial-in.
	if src.evictions() == 0 {
		t.Error("dead link was not evicted")
	}
}

// TestRegisterRedialsAfterDrop pins the worker side of the
// registration lifecycle: when the daemon drops the connection, the
// worker re-dials with backoff and serves jobs on the new connection.
func TestRegisterRedialsAfterDrop(t *testing.T) {
	g := testGrid()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	_, l := registerWorker(t, ln, "w", 2, fakeRunners)
	l.Close() // daemon-side drop: worker must come back

	l2 := acceptLink(t, ln) // the re-dial
	src := newChanSource()
	src.pool <- l2
	pe := &PoolExecutor{Source: src, Rounds: 100}
	store, err := sweep.Run(context.Background(), g, noLocal(t), sweep.Options{Executor: pe})
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != g.Size() {
		t.Errorf("re-registered worker completed %d of %d cells", store.Len(), g.Size())
	}
}

// TestLeaseGuardDropsStraggler pins the lease nonce: a result computed
// for a canceled sweep, arriving while a later sweep is running on the
// same connection with a colliding job ID, must be dropped — not
// delivered as the later sweep's cell.
func TestLeaseGuardDropsStraggler(t *testing.T) {
	oneCell := sweep.Grid{Workloads: []string{"CNN-MNIST"}, Policies: []string{"AutoFL"}, Replicates: 1, Seed: 9}
	gate := make(chan struct{})
	var calls int32
	gated := func(rounds int, traced bool) sweep.Runner {
		return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			if atomic.AddInt32(&calls, 1) == 1 {
				<-gate // the first sweep's cell stalls until after its lease dies
			}
			return fakeRunner(ctx, c, seed)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, l := registerWorker(t, ln, "w", 2, gated)
	src := newChanSource()
	src.pool <- l

	// Sweep 1: cancel while its only cell is stalled in the worker.
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		for atomic.LoadInt32(&calls) == 0 {
			time.Sleep(time.Millisecond)
		}
		close(started)
	}()
	pe1 := &PoolExecutor{Source: src, Rounds: 100}
	go func() {
		<-started
		cancel()
	}()
	if _, err := sweep.Run(ctx, oneCell, noLocal(t), sweep.Options{Executor: pe1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep 1: err = %v, want canceled", err)
	}

	// Sweep 2 on the released link, same task index 0. Unblock the
	// straggler mid-sweep; its stale lease tag must make driveLink
	// drop it rather than deliver it as sweep 2's cell 0.
	grid2 := sweep.Grid{Workloads: []string{"MobileNet"}, Policies: []string{"AutoFL"}, Replicates: 1, Seed: 10}
	serial2, err := sweep.Run(context.Background(), grid2, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	pe2 := &PoolExecutor{Source: src, Rounds: 100}
	store2, err := sweep.Run(context.Background(), grid2, noLocal(t), sweep.Options{Executor: pe2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeJSON(t, serial2), storeJSON(t, store2)) {
		t.Error("straggler of the canceled sweep leaked into the next sweep's results")
	}
}

// TestWorkerLifecycleNoGoroutineLeaks runs repeated serve/register/
// close cycles and checks the goroutine count returns to baseline —
// the long-lived-connection hygiene the control plane depends on.
func TestWorkerLifecycleNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		// Listener worker served by a coordinator.
		w := startWorker(t, 2, fakeRunners)
		re := &PoolExecutor{Source: Dial([]string{w.Addr()}, LinkOptions{}), Rounds: 100}
		if _, err := sweep.Run(context.Background(), testGrid(), noLocal(t), sweep.Options{Executor: re}); err != nil {
			t.Fatal(err)
		}
		w.Close()

		// Register-mode worker with its link driven and dropped.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dw, l := registerWorker(t, ln, "cycle", 1, fakeRunners)
		l.Close()
		dw.Close()
		ln.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked across serve/close cycles: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
