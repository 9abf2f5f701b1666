package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autofl/internal/sweep"
)

// ErrWorkerClosed is returned by Worker.Serve and Worker.Register
// after Close tears the worker down, so a deliberate shutdown is
// distinguishable from a transport failure.
var ErrWorkerClosed = errors.New("dist: worker closed")

// dialTimeout bounds each of Register's dial attempts.
const dialTimeout = 5 * time.Second

// RunnerFor maps a job's execution parameters — the round horizon and
// whether a per-round trace is requested — to the sweep.Runner that
// executes it. The indirection keeps workers horizon-agnostic: one
// long-lived worker process serves coordinators sweeping at any
// -rounds value, traced (cache-backed) or not.
type RunnerFor func(rounds int, traced bool) sweep.Runner

// Worker serves sweep cells to coordinators over either transport
// direction: Serve accepts coordinator connections on a listener (the
// PR 5 dial-out-fleet flow), and Register dials a control-plane
// daemon's registry and serves jobs over that connection, re-dialing
// with backoff whenever it drops. Both paths speak the same protocol —
// the worker sends hello, then executes job frames through the runner
// RunnerFor selects (with sweep.ExecuteTask's panic isolation) and
// streams results back. Multiple connections are served concurrently;
// each gets its own job pool of the advertised capacity.
type Worker struct {
	ln       net.Listener // nil for a register-only worker
	name     string
	runners  RunnerFor
	parallel int

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	done   chan struct{} // closed by Close; wakes Register's backoff sleep
	conns  map[net.Conn]struct{}

	handlers sync.WaitGroup
	served   atomic.Int64
}

// NewWorker listens on addr (":0" picks a free port; see Addr) and
// returns a worker executing up to parallel jobs concurrently per
// connection (values < 1 select GOMAXPROCS). Call Serve to accept
// coordinators.
func NewWorker(addr string, parallel int, runners RunnerFor) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	w, err := NewWorkerOn(ln, parallel, runners)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return w, nil
}

// NewWorkerOn is NewWorker over an already-established listener — the
// seam the fault-injection tests use to put a chaos.Listener under a
// real worker, so scripted connection faults (freeze after the hello,
// drop mid-frame) exercise the genuine serve path. The worker owns ln
// from here on (Close closes it).
func NewWorkerOn(ln net.Listener, parallel int, runners RunnerFor) (*Worker, error) {
	w, err := newWorker("", parallel, runners)
	if err != nil {
		return nil, err
	}
	w.ln = ln
	return w, nil
}

// NewDialWorker returns a register-only worker: it holds no listener
// and serves jobs exclusively over connections Register dials out to a
// control-plane daemon. name is the label advertised in the hello
// banner (shown by the daemon's worker registry; "" falls back to the
// connection's remote address there).
func NewDialWorker(name string, parallel int, runners RunnerFor) (*Worker, error) {
	return newWorker(name, parallel, runners)
}

func newWorker(name string, parallel int, runners RunnerFor) (*Worker, error) {
	if runners == nil {
		return nil, fmt.Errorf("dist: worker needs a RunnerFor")
	}
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{
		name:     name,
		runners:  runners,
		parallel: parallel,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}, nil
}

// Addr is the bound listen address (useful with ":0"); "" for a
// register-only worker.
func (w *Worker) Addr() string {
	if w.ln == nil {
		return ""
	}
	return w.ln.Addr().String()
}

// Served reports the number of jobs executed to completion since the
// worker started.
func (w *Worker) Served() int { return int(w.served.Load()) }

// Serve accepts coordinator connections until Close, then returns
// ErrWorkerClosed. Each connection is handled on its own goroutine;
// Serve itself only accepts.
func (w *Worker) Serve() error {
	if w.ln == nil {
		return fmt.Errorf("dist: register-only worker has no listener (use Register)")
	}
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			if w.isClosed() {
				return ErrWorkerClosed
			}
			return fmt.Errorf("dist: accept: %w", err)
		}
		if !w.track(conn) {
			conn.Close()
			return ErrWorkerClosed
		}
		go func() {
			defer w.handlers.Done()
			w.handle(conn)
		}()
	}
}

// RegisterOptions tune Register's re-dial loop. The zero value selects
// the defaults.
type RegisterOptions struct {
	// MinBackoff and MaxBackoff bound the exponential re-dial backoff
	// after a failed dial or a dropped connection (defaults 100ms, 5s).
	// A connection that served jobs resets the backoff.
	MinBackoff, MaxBackoff time.Duration
	// OnState, when set, observes connection lifecycle transitions
	// ("dialing", "serving", "backoff") — the worker CLI's logging
	// hook.
	OnState func(state string, err error)
}

func (o RegisterOptions) withDefaults() RegisterOptions {
	if o.MinBackoff <= 0 {
		o.MinBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	return o
}

// Register dials the control-plane daemon's worker registry at addr
// and serves jobs over the connection until it drops, then re-dials
// with exponential backoff — the worker side of the registration
// lifecycle. A worker that registers while a sweep is running picks up
// that sweep's queued cells (mid-sweep join); a worker whose daemon
// restarts finds it again without operator action. Register blocks
// until ctx is done (returning ctx.Err()) or Close is called
// (returning ErrWorkerClosed). Serve and Register may run
// concurrently: one process can accept a static fleet's coordinator
// dials and register with a daemon at once.
func (w *Worker) Register(ctx context.Context, addr string, opts RegisterOptions) error {
	opts = opts.withDefaults()
	backoff := opts.MinBackoff
	notify := func(state string, err error) {
		if opts.OnState != nil {
			opts.OnState(state, err)
		}
	}
	for {
		if w.isClosed() {
			return ErrWorkerClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		notify("dialing", nil)
		d := net.Dialer{Timeout: dialTimeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			if !w.track(conn) {
				conn.Close()
				return ErrWorkerClosed
			}
			notify("serving", nil)
			served := w.served.Load()
			func() {
				defer w.handlers.Done()
				w.handle(conn)
			}()
			if w.served.Load() > served {
				backoff = opts.MinBackoff // the link did real work; reset
			}
			err = fmt.Errorf("connection to %s closed", addr)
		}
		if w.isClosed() {
			return ErrWorkerClosed
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		notify("backoff", err)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		case <-w.done:
			return ErrWorkerClosed
		}
		if backoff *= 2; backoff > opts.MaxBackoff {
			backoff = opts.MaxBackoff
		}
	}
}

// track registers a live connection for Close to tear down, claiming a
// handler slot. It reports false when the worker is already closed.
func (w *Worker) track(conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.conns[conn] = struct{}{}
	w.handlers.Add(1)
	return true
}

// Close shuts the worker down: the listener (if any) stops accepting
// (waking a blocked Serve, which returns ErrWorkerClosed), Register's
// re-dial loop is woken and stopped, every coordinator connection is
// closed (unblocking their reads), in-flight cell executions are
// canceled through the worker context, and Close waits for the
// connection handlers to drain. Idempotent.
//
// Connections close before the context cancels, deliberately: a job
// interrupted by shutdown must surface to its coordinator as a broken
// connection (→ re-queue to a surviving worker), never as a
// successfully delivered "context canceled" cell error — the engine's
// first-result-wins dedup would pin that bogus result permanently.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	close(w.done)
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()

	var err error
	if w.ln != nil {
		err = w.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	w.cancel()
	w.handlers.Wait()
	return err
}

// isClosed reports whether Close has been called.
func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// handle serves one coordinator connection: banner, then a
// read-jobs/write-results loop with at most w.parallel cells executing
// at once. A broken connection ends the handler; the coordinator
// re-queues whatever it had in flight.
func (w *Worker) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()

	var wmu sync.Mutex // serializes result frames from the job pool
	write := func(m message) error {
		wmu.Lock()
		defer wmu.Unlock()
		// Deadline every frame: a coordinator that stopped reading must
		// fail the handler (→ connection drop → re-queue on its side)
		// rather than wedge the job pool behind a full socket buffer.
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		return writeMessage(conn, m)
	}
	if err := write(message{Kind: kindHello, Hello: &Hello{Version: ProtocolVersion, Capacity: w.parallel, Name: w.name}}); err != nil {
		return
	}

	slots := make(chan struct{}, w.parallel)
	var jobs sync.WaitGroup
	defer jobs.Wait() // don't tear the write mutex out from under the pool
	for {
		m, err := readMessage(conn)
		if err != nil {
			return // coordinator done (or gone); either way this session is over
		}
		if m.Kind == kindPing {
			// Liveness probe: answer from the read loop, never from the
			// job pool, so a worker saturated with long cells still
			// proves it is alive (only a frozen process goes silent).
			if write(message{Kind: kindPong}) != nil {
				return
			}
			continue
		}
		if m.Kind != kindJob || m.Job == nil {
			return // protocol violation: drop the connection, not the process
		}
		job := *m.Job
		slots <- struct{}{}
		jobs.Add(1)
		go func() {
			defer func() { <-slots; jobs.Done() }()
			res := w.execute(job)
			if w.ctx.Err() != nil {
				// Shutdown raced the execution: the outcome may be a
				// cancellation artifact. Drop it and break the
				// connection so the coordinator re-queues the cell.
				conn.Close()
				return
			}
			if write(message{Kind: kindResult, Result: &res}) != nil {
				// An undeliverable result (marshal failure, frame over
				// the bound, dead socket) must not strand the job: a
				// silently dropped ID would leave the coordinator
				// waiting forever. Break the connection so its reader
				// fails and re-queues every in-flight cell.
				conn.Close()
				return
			}
			w.served.Add(1)
		}()
	}
}

// execute runs one job through the runner its parameters select,
// measuring wall-clock the same way the cache's local Runner wrapper
// does.
func (w *Worker) execute(job Job) JobResult {
	run := w.runners(job.Rounds, job.Traced)
	start := time.Now()
	r := sweep.ExecuteTask(w.ctx, sweep.Task{Index: job.ID, Cell: job.Cell, Seed: job.Seed}, run)
	return JobResult{
		ID:          job.ID,
		Digest:      job.Digest,
		Lease:       job.Lease,
		Outcome:     r.Outcome,
		Err:         r.Err,
		WallSeconds: time.Since(start).Seconds(),
	}
}
