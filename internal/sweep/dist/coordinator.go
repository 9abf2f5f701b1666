package dist

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"autofl/internal/sweep"
	"autofl/internal/sweep/cache"
)

// DefaultRetryBudget is the number of re-queues a single cell may
// consume before being quarantined (see dispatch.fault). Three
// re-queues tolerate a rolling restart of a small fleet while still
// containing a poison cell — one that crashes or hangs every worker
// it lands on — after four attempts.
const DefaultRetryBudget = 3

// requeueBackoff is the base of the exponential backoff applied from
// a cell's second re-queue on; maxRequeueBackoff caps it so a deep
// budget never strands a cell for minutes. The first re-queue is
// immediate: a lone fault is overwhelmingly a worker death, not a
// poison cell.
const (
	requeueBackoff    = 100 * time.Millisecond
	maxRequeueBackoff = 5 * time.Second
)

// normalizeBudget maps an executor's RetryBudget field to the
// effective bound: 0 selects the default, negative means no retries.
func normalizeBudget(budget int) int {
	switch {
	case budget == 0:
		return DefaultRetryBudget
	case budget < 0:
		return 0
	}
	return budget
}

// servePass serves every task the cache can witness directly through
// emit and returns the rest — the executor's first step, which is what
// makes a fully cached grid never acquire a worker (so a Dial source
// never dials) and overlapping grids from concurrent control-plane
// clients execute only their non-overlapping cells.
func servePass(c *cache.Cache, tasks []sweep.Task, emit func(int, sweep.Result)) []sweep.Task {
	if c == nil {
		return tasks
	}
	pending := make([]sweep.Task, 0, len(tasks))
	for _, t := range tasks {
		if out, ok := c.Serve(t.Cell, t.Seed); ok {
			emit(t.Index, sweep.Result{Cell: t.Cell, Seed: t.Seed, Outcome: out})
			continue
		}
		pending = append(pending, t)
	}
	return pending
}

// stampJob renders one task into its wire form under the executor's
// horizon and cache. A job is traced exactly when there is a cache to
// commit its trace to.
func stampJob(t sweep.Task, rounds int, c *cache.Cache) Job {
	j := Job{ID: t.Index, Cell: t.Cell, Seed: t.Seed, Rounds: rounds}
	if c != nil {
		j.Traced = true
		j.Digest = c.Signature().CellDigest(t.Cell)
	}
	return j
}

// commitResult commits one remote result (cache first, by digest; then
// the engine's emit). The trace payload, if any, stops at the cache —
// exactly like the local cache.Runner path, so distributed output is
// byte-identical to local.
func commitResult(c *cache.Cache, t sweep.Task, res JobResult, emit func(int, sweep.Result)) {
	out := res.Outcome
	if c != nil && res.Err == "" {
		_ = c.Put(sweep.Result{Cell: t.Cell, Seed: t.Seed, Outcome: out}, res.WallSeconds)
	}
	out.Trace = nil
	emit(t.Index, sweep.Result{Cell: t.Cell, Seed: t.Seed, Outcome: out, Err: res.Err})
}

// dispatch is the shared task-flow state of one Execute call: the
// claim queue every lease pulls from, the completion latch, the fault
// path — per-cell retry accounting, exponential re-queue backoff, and
// quarantine past the budget — and the call's share of the Audit. The
// queue's capacity is the invariant that makes every re-queue
// non-blocking: a task is always either queued, in exactly one lease's
// in-flight set, on one backoff timer, or finished (delivered or
// quarantined).
type dispatch struct {
	queue chan sweep.Task
	done  chan struct{} // closed when every task is finished
	stop  chan struct{} // closed by shutdown; frees backoff timers

	remaining atomic.Int64
	closeOnce sync.Once

	emit        func(int, sweep.Result)
	budget      int
	cellTimeout time.Duration

	mu          sync.Mutex
	failures    map[int]int    // task index → faults so far
	cells       map[string]int // worker label → cells delivered
	requeues    int
	quarantined int

	timers sync.WaitGroup
}

// newDispatch loads the pending tasks into a fresh dispatcher. budget
// is the normalized value (see normalizeBudget).
func newDispatch(pending []sweep.Task, emit func(int, sweep.Result), budget int, cellTimeout time.Duration) *dispatch {
	d := &dispatch{
		queue:       make(chan sweep.Task, len(pending)),
		done:        make(chan struct{}),
		stop:        make(chan struct{}),
		emit:        emit,
		budget:      budget,
		cellTimeout: cellTimeout,
		failures:    make(map[int]int),
		cells:       make(map[string]int),
	}
	for _, t := range pending {
		d.queue <- t
	}
	d.remaining.Store(int64(len(pending)))
	return d
}

// finish marks one task delivered or quarantined; the last one closes
// done.
func (d *dispatch) finish() {
	if d.remaining.Add(-1) == 0 {
		d.closeOnce.Do(func() { close(d.done) })
	}
}

// fault routes one undelivered task after a worker failure: back on
// the queue (immediately on its first fault, with exponential backoff
// from the second on — a cell collecting faults is suspect, and
// hammering it across the fleet is how livelock starts), or into
// quarantine once it exceeds the retry budget. A quarantined cell is
// emitted as an explicit per-cell error and counted finished, so the
// sweep completes with a visible hole instead of spinning forever.
func (d *dispatch) fault(t sweep.Task, cause error) {
	d.mu.Lock()
	d.failures[t.Index]++
	n := d.failures[t.Index]
	quarantine := n > d.budget
	if quarantine {
		d.quarantined++
	} else {
		d.requeues++
	}
	d.mu.Unlock()
	if quarantine {
		d.emit(t.Index, sweep.Result{Cell: t.Cell, Seed: t.Seed,
			Err: fmt.Sprintf("dist: quarantined after %d failed attempts (retry budget %d): %v", n, d.budget, cause)})
		d.finish()
		return
	}
	if n == 1 {
		d.queue <- t
		return
	}
	delay := min(requeueBackoff<<(n-2), maxRequeueBackoff)
	d.timers.Add(1)
	go func() {
		defer d.timers.Done()
		tm := time.NewTimer(delay)
		defer tm.Stop()
		select {
		case <-tm.C:
			d.queue <- t
		case <-d.stop:
		}
	}()
}

// delivered counts one cell a worker completed.
func (d *dispatch) delivered(label string) {
	d.mu.Lock()
	d.cells[label]++
	d.mu.Unlock()
}

// audit fills a's executor fields from this call's tallies.
func (d *dispatch) audit(a *Audit) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a.Workers = maps.Clone(d.cells)
	a.Requeues, a.Quarantined = d.requeues, d.quarantined
}

// shutdown releases every pending backoff timer and waits them out —
// the Execute-return barrier that keeps goroutine-leak checks honest.
func (d *dispatch) shutdown() {
	close(d.stop)
	d.timers.Wait()
}

// Source supplies worker links to a PoolExecutor. Acquire blocks until
// a worker is available (a newly registered worker joining mid-sweep
// satisfies a waiting Acquire, which is how late joiners pick up
// queued cells) or ctx is done. A link handed out by Acquire is leased
// exclusively until returned: Release puts a healthy link back in the
// pool, Evict discards one whose connection died. The control plane's
// worker registry serves a dynamic fleet; Dial serves a fixed address
// list.
type Source interface {
	Acquire(ctx context.Context) (*Link, error)
	Release(l *Link)
	Evict(l *Link, err error)
}

// ErrNoWorkers is returned (wrapping the first failure) by a Dial
// source's Acquire once every address has failed. A PoolExecutor
// whose Source reports it fails the sweep instead of waiting.
var ErrNoWorkers = errors.New("dist: all workers gone")

// dialSource is the Source Dial returns.
type dialSource struct {
	addrs []string
	opts  LinkOptions
	start sync.Once
	ready chan *Link // dialed links not yet acquired (one slot per address)

	mu    sync.Mutex
	live  int           // addresses whose dial, handshake or link has not failed
	first error         // the first failure
	gone  chan struct{} // closed once live reaches 0
}

// Dial returns a Source over the listening workers at addrs. It dials
// lazily: the first Acquire dials and handshakes every address
// concurrently (opts.HandshakeTimeout bounds each dial and each
// handshake), so a fully cached grid never dials. Each link is labeled
// by its address exactly as given, whatever name the worker
// advertises. An address whose dial, handshake or link fails is gone
// for good; once every address is gone, Acquire returns ErrNoWorkers.
// Release and Evict both close the link.
//
// A Dial source serves one Execute: its dials run under the first
// Acquire's context, and when that context ends, dials and handshakes
// still pending are abandoned and unclaimed links are closed.
func Dial(addrs []string, opts LinkOptions) Source {
	s := &dialSource{addrs: addrs, opts: opts, ready: make(chan *Link, len(addrs)),
		live: len(addrs), gone: make(chan struct{})}
	if len(addrs) == 0 {
		s.first = errors.New("dist: no worker addresses")
		close(s.gone)
	}
	return s
}

func (s *dialSource) Acquire(ctx context.Context) (*Link, error) {
	s.start.Do(func() { s.dialAll(ctx) })
	select {
	case l := <-s.ready:
		return l, nil
	case <-s.gone:
		s.mu.Lock()
		defer s.mu.Unlock()
		return nil, fmt.Errorf("%w (first failure: %w)", ErrNoWorkers, s.first)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// dialAll starts one dial per address under ctx, and closes whatever
// is still unclaimed once ctx ends. Queuing a link and the closing
// sweep both hold s.mu, so no link can slip into ready after it.
func (s *dialSource) dialAll(ctx context.Context) {
	for _, addr := range s.addrs {
		go func() {
			l, err := DialLink(ctx, addr, s.opts)
			if err != nil {
				s.lose(err)
				return
			}
			l.label = addr
			s.mu.Lock()
			defer s.mu.Unlock()
			if ctx.Err() != nil {
				l.Close()
				return
			}
			s.ready <- l
		}()
	}
	context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for {
			select {
			case l := <-s.ready:
				l.Close()
			default:
				return
			}
		}
	})
}

// lose retires one address after its dial, handshake or link failed.
func (s *dialSource) lose(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.first == nil {
		s.first = err
	}
	if s.live--; s.live == 0 {
		close(s.gone)
	}
}

func (s *dialSource) Release(l *Link) { l.Close() }

func (s *dialSource) Evict(l *Link, err error) {
	l.Close()
	s.lose(fmt.Errorf("dist: %s: %w", l.Label(), err))
}

// PoolExecutor is the distributed execution strategy: a sweep.Executor
// that farms tasks to worker links acquired from its Source,
// pipelining up to each worker's advertised capacity. It leases
// workers as the Source produces them, so workers can join mid-sweep
// to claim queued cells. Delivery is at-least-once — a lost worker's
// in-flight cells are re-queued to the survivors — and idempotent end
// to end: the engine keeps the first result per cell index, and cache
// commits dedup by cell digest, so a re-executed cell (whose outcome
// is identical anyway, by the per-cell seed derivation) changes
// nothing. When no worker is available, Execute waits (until ctx
// cancels) — in a long-running service worker absence is transient —
// unless the Source reports ErrNoWorkers, which fails the sweep with
// the count of unfinished cells.
//
// Failure containment: a hung worker is evicted by the link's
// heartbeat (and, when CellTimeout is set, by the per-cell execution
// deadline) exactly like a dead one. A cell that keeps killing its
// workers is re-queued with exponential backoff until its retry
// budget runs out, then quarantined — the sweep completes with an
// explicit per-cell error instead of livelocking; AuditOf reports the
// re-queues and quarantines. Heartbeat configuration lives with
// whoever creates the links (Dial's options, the registry).
//
// With a Cache attached, the executor serves cached cells itself —
// including shorter-horizon requests answered by trace-prefix replay —
// and ships only the misses, traced, committing every remote result
// back into the cache with its worker-measured wall-clock. The same
// directory can back local and distributed sweeps interchangeably.
//
// Safe for one Execute call at a time.
type PoolExecutor struct {
	Source Source
	// Rounds is the horizon bound stamped on every job, normalized by
	// the caller (the root package maps 0 to the paper's 1000; a zero
	// value here defers to the workers' RunnerFor default).
	Rounds int
	// Cache, when non-nil, serves hits locally and commits remote
	// results. It must be open under the sweep's signature.
	Cache *cache.Cache
	// RetryBudget is the number of re-queues a single cell may consume
	// — across all workers — before it is quarantined with an explicit
	// error instead of retried (0 selects DefaultRetryBudget; negative
	// quarantines on the first fault).
	RetryBudget int
	// CellTimeout bounds one cell's remote execution. A link holding a
	// cell past the bound is torn down — the worker is hung or
	// drowning — and its in-flight cells re-queue like a death's.
	// 0 means no bound: cells legitimately run long.
	CellTimeout time.Duration

	last atomic.Pointer[dispatch] // the most recent Execute call's, read by AuditOf
}

// Execute implements sweep.Executor. The local Runner is deliberately
// ignored: every non-cached cell executes on a worker, which is what
// makes "0 local executions" checkable — the engine's runner can be a
// guard that fails the cell if it ever runs.
func (e *PoolExecutor) Execute(ctx context.Context, tasks []sweep.Task, _ sweep.Runner, emit func(int, sweep.Result)) error {
	if e.Source == nil {
		return errors.New("dist: pool executor needs a Source")
	}
	pending := servePass(e.Cache, tasks, emit)
	d := newDispatch(pending, emit, normalizeBudget(e.RetryBudget), e.CellTimeout)
	e.last.Store(d)
	if len(pending) == 0 {
		return nil
	}
	defer d.shutdown()

	// The acquirer keeps leasing workers while the sweep runs; each
	// lease drives the shared claim loop on its own goroutine. Extra
	// workers beyond the remaining cells just block on the empty queue
	// until done closes — cheap, and it keeps join racing simple.
	acqCtx, stopAcq := context.WithCancel(ctx)
	defer stopAcq()
	var leases sync.WaitGroup
	var noWorkers error
	acqDone := make(chan struct{})
	gone := make(chan struct{})
	go func() {
		defer close(acqDone)
		for {
			l, err := e.Source.Acquire(acqCtx)
			if err != nil {
				if errors.Is(err, ErrNoWorkers) {
					noWorkers = err
					close(gone)
				}
				return
			}
			leases.Add(1)
			go func(l *Link) {
				defer leases.Done()
				err := driveLink(acqCtx, l, d,
					func(t sweep.Task) Job { return stampJob(t, e.Rounds, e.Cache) },
					func(t sweep.Task, res JobResult) {
						// Counted first, so the audit a progress
						// callback reads already holds this cell.
						d.delivered(l.Label())
						commitResult(e.Cache, t, res, emit)
					})
				if err == nil || errors.Is(err, context.Canceled) {
					// Sweep finished or was canceled with the link intact.
					e.Source.Release(l)
					return
				}
				e.Source.Evict(l, err)
			}(l)
		}
	}()

	select {
	case <-d.done:
	case <-ctx.Done():
	case <-gone:
	}
	stopAcq()
	<-acqDone // no further leases.Add after this
	leases.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if n := d.remaining.Load(); n > 0 && noWorkers != nil {
		return fmt.Errorf("dist: %d cells unfinished: %w", n, noWorkers)
	}
	return nil
}
