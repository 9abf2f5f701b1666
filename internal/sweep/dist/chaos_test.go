package dist

// The fault-injection suite: every test drives a scripted failure
// through the chaos harness (or a misbehaving runner) against real
// workers and asserts the hardened coordinator behavior — eviction,
// re-queue, quarantine — with byte-identity against a serial run
// wherever the sweep is expected to complete cleanly. No test sleeps:
// timing enters only through configured heartbeat/deadline bounds.

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autofl/internal/chaos"
	"autofl/internal/sweep"
)

// startChaosWorker runs a real worker behind a chaos listener, so the
// scripted faults hit the genuine serve path.
func startChaosWorker(t *testing.T, parallel int, runners RunnerFor, sched chaos.Schedule) *Worker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkerOn(chaos.NewListener(ln, sched), parallel, runners)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	t.Cleanup(func() { w.Close() })
	return w
}

// waitGoroutines polls the goroutine count back down to the baseline —
// the leak check every injected fault must pass once the workers are
// closed.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked under injected faults: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// enteringRunners is the fake runner plus a one-shot gate closed the
// first time the faulty worker actually claims a cell — the
// synchronization that makes "the faulty worker had work in flight
// when it failed" a guarantee instead of a race.
func enteringRunners(entered chan struct{}) RunnerFor {
	var once sync.Once
	return func(rounds int, traced bool) sweep.Runner {
		return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			once.Do(func() { close(entered) })
			return fakeRunner(ctx, c, seed)
		}
	}
}

// waitingRunners holds the healthy worker's cells until the faulty
// worker has claimed work, so the queue cannot drain before the fault
// fires.
func waitingRunners(entered chan struct{}) RunnerFor {
	return func(rounds int, traced bool) sweep.Runner {
		return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			select {
			case <-entered:
			case <-ctx.Done():
				return sweep.Outcome{}, ctx.Err()
			}
			return fakeRunner(ctx, c, seed)
		}
	}
}

// chaosCtx bounds a chaos sweep so a regression hangs the test for
// seconds, not the full go test timeout.
func chaosCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestHungWorkerEvictedByHeartbeat is the frozen-process acceptance
// criterion: a worker whose connection freezes mid-sweep (the SIGSTOP
// fault — established, never speaks again) is evicted by the link
// heartbeat within the configured bound, its in-flight cells re-queue
// to the survivor, and the completed sweep is byte-identical to a
// serial run.
func TestHungWorkerEvictedByHeartbeat(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := testGrid()
	serial, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Write 1 is the worker's hello; write 2 — its first result —
	// freezes the connection in both directions.
	entered := make(chan struct{})
	frozen := startChaosWorker(t, 2, enteringRunners(entered), chaos.Script{{FreezeAfterWrites: 2}})
	clean := startWorker(t, 2, waitingRunners(entered))

	re := &PoolExecutor{
		Source: Dial([]string{frozen.Addr(), clean.Addr()},
			LinkOptions{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 200 * time.Millisecond}),
		Rounds: 100,
	}
	dist, err := sweep.Run(chaosCtx(t), g, noLocal(t), sweep.Options{Executor: re})
	if err != nil {
		t.Fatalf("sweep must survive a frozen worker: %v", err)
	}
	if !bytes.Equal(storeJSON(t, serial), storeJSON(t, dist)) {
		t.Error("post-eviction distributed JSON differs from serial local JSON")
	}
	if a := AuditOf(nil, re, nil); a.Requeues == 0 {
		t.Error("frozen worker evicted with no re-queues recorded")
	} else if a.Quarantined != 0 {
		t.Errorf("requeued cells quarantined spuriously: %d", a.Quarantined)
	}

	frozen.Close()
	clean.Close()
	waitGoroutines(t, baseline)
}

// TestCellDeadlineEvictsStuckWorker pins the per-cell execution bound
// as a mechanism independent of the heartbeat: the stuck worker stays
// fully live on the wire (its read loop would answer pings), but a
// cell held past CellTimeout condemns the link anyway.
func TestCellDeadlineEvictsStuckWorker(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := testGrid()
	serial, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	var once sync.Once
	stuckRunners := func(rounds int, traced bool) sweep.Runner {
		return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			once.Do(func() { close(entered) })
			<-ctx.Done() // alive on the wire, never finishes the cell
			return sweep.Outcome{}, ctx.Err()
		}
	}
	stuck := startWorker(t, 2, stuckRunners)
	clean := startWorker(t, 2, waitingRunners(entered))

	re := &PoolExecutor{
		// Heartbeats off: only the execution deadline may evict here.
		Source:      Dial([]string{stuck.Addr(), clean.Addr()}, LinkOptions{HeartbeatInterval: -1}),
		Rounds:      100,
		CellTimeout: 50 * time.Millisecond,
	}
	dist, err := sweep.Run(chaosCtx(t), g, noLocal(t), sweep.Options{Executor: re})
	if err != nil {
		t.Fatalf("sweep must survive a stuck worker: %v", err)
	}
	if !bytes.Equal(storeJSON(t, serial), storeJSON(t, dist)) {
		t.Error("post-deadline distributed JSON differs from serial local JSON")
	}
	if a := AuditOf(nil, re, nil); a.Requeues == 0 {
		t.Error("stuck worker condemned with no re-queues recorded")
	} else if a.Quarantined != 0 {
		t.Errorf("requeued cells quarantined spuriously: %d", a.Quarantined)
	}

	stuck.Close()
	clean.Close()
	waitGoroutines(t, baseline)
}

// TestPoisonCellQuarantinedAfterBudget is the livelock acceptance
// criterion: a cell that kills every worker it lands on exhausts its
// retry budget and lands in the output as an explicit quarantine
// error — the sweep completes with a visible hole instead of spinning.
func TestPoisonCellQuarantinedAfterBudget(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := testGrid()
	poison := g.Cells()[0].Key()

	// Each worker runs parallel=1 so the poison cell is the only thing
	// in flight when it takes its worker down — no innocent cells burn
	// budget alongside it.
	mk := func() *Worker {
		var w *Worker
		runners := func(rounds int, traced bool) sweep.Runner {
			return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
				if c.Key() == poison {
					go w.Close() // the poison cell kills every worker it lands on
					<-ctx.Done()
					return sweep.Outcome{}, ctx.Err()
				}
				return fakeRunner(ctx, c, seed)
			}
		}
		w, err := NewWorker("127.0.0.1:0", 1, runners)
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		return w
	}
	w1, w2, w3 := mk(), mk(), mk()

	re := &PoolExecutor{
		Source:      Dial([]string{w1.Addr(), w2.Addr(), w3.Addr()}, LinkOptions{}),
		Rounds:      100,
		RetryBudget: 1, // one re-queue, then quarantine: two workers die, one survives
	}
	store, err := sweep.Run(chaosCtx(t), g, noLocal(t), sweep.Options{Executor: re})
	if err != nil {
		t.Fatalf("sweep must complete around a poison cell: %v", err)
	}
	if store.Len() != g.Size() {
		t.Fatalf("completed %d of %d cells", store.Len(), g.Size())
	}
	out := string(storeJSON(t, store))
	if n := strings.Count(out, "dist: quarantined after"); n != 1 {
		t.Errorf("quarantine errors in output = %d, want exactly 1", n)
	}
	if !strings.Contains(out, "retry budget 1") {
		t.Error("quarantine error does not name the exhausted budget")
	}
	a := AuditOf(nil, re, store)
	if a.Quarantined != 1 || a.FailedCells != 1 {
		t.Errorf("audit quarantined %d, failed %d cells; want 1 each", a.Quarantined, a.FailedCells)
	}
	if a.Requeues != 1 {
		t.Errorf("audit requeues = %d, want exactly 1 (first fault re-queues, second quarantines)", a.Requeues)
	}

	w1.Close()
	w2.Close()
	w3.Close()
	waitGoroutines(t, baseline)
}

// TestDropMidFrameRequeues injects the crash-shaped truncation: the
// worker's connection hard-closes partway through its first result
// frame. The coordinator must treat the torn frame as a link death and
// re-queue, never deliver a partial result.
func TestDropMidFrameRequeues(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := testGrid()
	serial, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The hello frame is ~52 bytes; the first result frame is hundreds.
	// An 80-byte budget lets the handshake through and tears the first
	// result mid-frame.
	entered := make(chan struct{})
	torn := startChaosWorker(t, 2, enteringRunners(entered), chaos.Script{{DropAfterBytes: 80}})
	clean := startWorker(t, 2, waitingRunners(entered))

	re := &PoolExecutor{Source: Dial([]string{torn.Addr(), clean.Addr()}, LinkOptions{}), Rounds: 100}
	dist, err := sweep.Run(chaosCtx(t), g, noLocal(t), sweep.Options{Executor: re})
	if err != nil {
		t.Fatalf("sweep must survive a mid-frame drop: %v", err)
	}
	if !bytes.Equal(storeJSON(t, serial), storeJSON(t, dist)) {
		t.Error("post-drop distributed JSON differs from serial local JSON")
	}
	if AuditOf(nil, re, nil).Requeues == 0 {
		t.Error("mid-frame drop recorded no re-queues")
	}

	torn.Close()
	clean.Close()
	waitGoroutines(t, baseline)
}

// TestRefusedWorkerSweepSurvives is the partition-on-dial fault: one
// address accepts and immediately drops every connection. The sweep
// completes on the reachable worker alone.
func TestRefusedWorkerSweepSurvives(t *testing.T) {
	g := testGrid()
	serial, err := sweep.Run(context.Background(), g, fakeRunner, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	refusing := startChaosWorker(t, 2, fakeRunners, chaos.Func(func(int) chaos.Plan {
		return chaos.Plan{Refuse: true} // every dial partitioned
	}))
	clean := startWorker(t, 2, fakeRunners)

	re := &PoolExecutor{Source: Dial([]string{refusing.Addr(), clean.Addr()}, LinkOptions{}), Rounds: 100}
	dist, err := sweep.Run(chaosCtx(t), g, noLocal(t), sweep.Options{Executor: re})
	if err != nil {
		t.Fatalf("sweep must survive a partitioned worker: %v", err)
	}
	if !bytes.Equal(storeJSON(t, serial), storeJSON(t, dist)) {
		t.Error("post-partition distributed JSON differs from serial local JSON")
	}
	if refusing.Served() != 0 {
		t.Errorf("partitioned worker served %d cells", refusing.Served())
	}
}
