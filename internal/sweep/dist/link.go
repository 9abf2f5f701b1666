package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"autofl/internal/sweep"
)

// ErrLinkClosed is the Err of a Link torn down by a deliberate Close,
// distinguishable from a transport failure.
var ErrLinkClosed = errors.New("dist: link closed")

// writeTimeout bounds every frame write on either side of a
// connection — the coordinator's job sends and heartbeat pings, the
// worker's hello, pongs and results — so a stalled peer surfaces as a
// link failure instead of wedging the sending goroutine forever.
const writeTimeout = 30 * time.Second

// leaseIDs numbers driveLink leases process-wide (see the lease nonce
// in driveLink).
var leaseIDs atomic.Uint64

// LinkOptions tune a Link's liveness machinery. The zero value
// selects the defaults; negative durations disable the corresponding
// mechanism.
type LinkOptions struct {
	// HandshakeTimeout bounds the hello read (default 10s).
	HandshakeTimeout time.Duration
	// HeartbeatInterval is how often the coordinator pings an
	// otherwise-quiet link (default 5s; < 0 disables heartbeats).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long the link tolerates total silence —
	// no results, no pongs — before declaring the worker hung and
	// failing the link (default 4× the interval). A hung-but-connected
	// worker is thereby evicted just like a dead one: Dead closes, the
	// lease re-queues its in-flight cells, and the registry drops it.
	HeartbeatTimeout time.Duration
}

func (o LinkOptions) withDefaults() LinkOptions {
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 5 * time.Second
	}
	if o.HeartbeatTimeout == 0 {
		o.HeartbeatTimeout = 4 * o.HeartbeatInterval
	}
	return o
}

// Link is one established, handshaken connection to a worker, owned by
// the coordinating side — whether the coordinator dialed a listening
// worker (the PR 5 flow) or a register-mode worker dialed in and the
// connection was accepted (the control-plane flow). Either way the
// worker speaks first (hello), so both directions share one handshake.
//
// A Link owns all reads on the connection: a single persistent reader
// goroutine routes result frames to the attached channel (or discards
// them when none is attached), and its exit — transport failure,
// protocol violation, heartbeat timeout, or Close — closes Dead. That
// single-reader design is what lets a long-lived registry hold idle
// connections and lease them to one sweep after another without read
// handoffs: a worker's death is observed the moment it happens, and a
// stale result from a canceled lease is dropped instead of corrupting
// the next.
//
// Liveness: every received frame (results and pongs alike) refreshes
// the link's last-heard clock; a background heartbeat pings on the
// configured interval and fails the link when the silence exceeds the
// heartbeat timeout. Workers answer pings from their read loop even
// while cells execute, so a long-running cell never looks like a hang
// — only a genuinely frozen or partitioned peer does.
//
// At most one sweep drives a Link at a time (job IDs are per-sweep
// task indexes); the registry's lease discipline enforces that.
type Link struct {
	conn     net.Conn
	name     string
	label    string // set by Dial: the address as given
	capacity int
	opts     LinkOptions

	wmu sync.Mutex // serializes frame writes (jobs and pings)

	mu     sync.Mutex
	dst    chan<- JobResult
	closed bool
	failed bool
	err    error

	dead     chan struct{}
	served   atomic.Int64
	lastRecv atomic.Int64 // UnixNano of the last received frame
}

// NewLink performs the coordinator-side handshake on an established
// connection — the worker's hello under the handshake timeout, version
// check — and starts the reader and heartbeat. On error the connection
// is left to the caller; on success the Link owns it (Close it through
// the Link).
func NewLink(conn net.Conn, opts LinkOptions) (*Link, error) {
	opts = opts.withDefaults()
	conn.SetReadDeadline(time.Now().Add(opts.HandshakeTimeout))
	m, err := readMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("reading hello: %w", err)
	}
	if m.Kind != kindHello || m.Hello == nil {
		return nil, fmt.Errorf("expected hello, got %q", m.Kind)
	}
	if m.Hello.Version != ProtocolVersion {
		return nil, fmt.Errorf("protocol version %d, want %d", m.Hello.Version, ProtocolVersion)
	}
	capacity := m.Hello.Capacity
	if capacity < 1 {
		capacity = 1
	}
	conn.SetReadDeadline(time.Time{})
	l := &Link{
		conn:     conn,
		name:     m.Hello.Name,
		capacity: capacity,
		opts:     opts,
		dead:     make(chan struct{}),
	}
	l.lastRecv.Store(time.Now().UnixNano())
	go l.read()
	if opts.HeartbeatInterval > 0 {
		go l.heartbeat()
	}
	return l, nil
}

// DialLink dials a listening worker at addr and performs NewLink's
// handshake on the connection; opts.HandshakeTimeout (default 10s)
// bounds the dial and the handshake each. A dial or handshake still
// pending when ctx ends is abandoned. Dial and the control plane's
// static-fleet bootstrap share it.
func DialLink(ctx context.Context, addr string, opts LinkOptions) (*Link, error) {
	opts = opts.withDefaults()
	d := net.Dialer{Timeout: opts.HandshakeTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	l, err := NewLink(conn, opts)
	if !stop() {
		// ctx ended mid-handshake and closed the connection.
		if l != nil {
			l.Close()
		}
		return nil, fmt.Errorf("dist: %s: %w", addr, ctx.Err())
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: %s: %w", addr, err)
	}
	return l, nil
}

// Name is the worker's self-advertised label ("" when it sent none).
func (l *Link) Name() string { return l.name }

// RemoteAddr is the connection's remote endpoint.
func (l *Link) RemoteAddr() string { return l.conn.RemoteAddr().String() }

// Label names the link for counts and status views: the address a
// Dial source dialed it at, else the advertised name when there is
// one, else the remote address.
func (l *Link) Label() string {
	if l.label != "" {
		return l.label
	}
	if l.name != "" {
		return l.name
	}
	return l.RemoteAddr()
}

// Capacity is the worker's advertised concurrent-job capacity.
func (l *Link) Capacity() int { return l.capacity }

// Served reports results delivered over the link's lifetime.
func (l *Link) Served() int { return int(l.served.Load()) }

// Attach routes subsequent result frames to ch. The channel must have
// capacity for every in-flight job of the lease (the reader blocks on
// a full channel, which is safe only while the lease drains it).
func (l *Link) Attach(ch chan<- JobResult) {
	l.mu.Lock()
	l.dst = ch
	l.mu.Unlock()
}

// Detach stops routing results; frames arriving with no destination —
// stragglers of a canceled lease — are counted and dropped, exactly
// as the PR 5 coordinator dropped results for re-queued cells.
func (l *Link) Detach() {
	l.mu.Lock()
	l.dst = nil
	l.mu.Unlock()
}

// Send writes one job frame. Safe for concurrent use.
func (l *Link) Send(j Job) error {
	return l.send(message{Kind: kindJob, Job: &j})
}

// send frames one message under the write mutex and the write
// deadline, so a peer that stops reading fails the write instead of
// wedging the caller.
func (l *Link) send(m message) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return writeMessage(l.conn, m)
}

// Dead is closed when the link fails: transport failure, protocol
// violation, heartbeat timeout, or Close. After Dead, Err reports why.
func (l *Link) Dead() <-chan struct{} { return l.dead }

// Err returns the link's failure cause once Dead is closed
// (ErrLinkClosed for a deliberate Close), nil before.
func (l *Link) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close tears the link down: the connection closes, the reader exits
// (closing Dead with ErrLinkClosed), and any lease observes the death
// and re-queues its in-flight cells. Idempotent.
func (l *Link) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	return l.conn.Close()
}

// read is the link's single reader: it routes result frames (and
// swallows pongs, which only refresh the liveness clock) until the
// connection dies.
func (l *Link) read() {
	for {
		m, err := readMessage(l.conn)
		if err != nil {
			l.fail(err)
			return
		}
		l.lastRecv.Store(time.Now().UnixNano())
		switch {
		case m.Kind == kindPong:
			continue
		case m.Kind != kindResult || m.Result == nil:
			l.fail(fmt.Errorf("dist: unexpected %q frame", m.Kind))
			l.conn.Close()
			return
		}
		l.mu.Lock()
		dst := l.dst
		l.mu.Unlock()
		if dst != nil {
			dst <- *m.Result
		}
		l.served.Add(1)
	}
}

// heartbeat pings the worker on the configured interval and fails the
// link once total silence — no results, no pongs — exceeds the
// heartbeat timeout. It closes the connection on failure so the
// reader exits too.
func (l *Link) heartbeat() {
	t := time.NewTicker(l.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-l.dead:
			return
		case <-t.C:
			quiet := time.Since(time.Unix(0, l.lastRecv.Load()))
			if quiet > l.opts.HeartbeatTimeout {
				l.fail(fmt.Errorf("dist: heartbeat timeout: worker silent for %s (bound %s)",
					quiet.Round(time.Millisecond), l.opts.HeartbeatTimeout))
				l.conn.Close()
				return
			}
			if err := l.send(message{Kind: kindPing}); err != nil {
				l.fail(fmt.Errorf("dist: heartbeat send: %w", err))
				l.conn.Close()
				return
			}
		}
	}
}

// fail records the link's failure cause and closes Dead. First cause
// wins: the reader, the heartbeat, and a lease teardown can all race
// to report, and only one closes the channel.
func (l *Link) fail(err error) {
	l.mu.Lock()
	if l.failed {
		l.mu.Unlock()
		return
	}
	l.failed = true
	if l.closed {
		err = ErrLinkClosed
	}
	l.err = err
	l.mu.Unlock()
	close(l.dead)
}

// inflightJob is one claimed, undelivered task of a lease, stamped
// with its send time for the per-cell execution deadline.
type inflightJob struct {
	task   sweep.Task
	sentAt time.Time
}

// driveLink runs one lease: the claim/pipeline loop of a sweep over an
// established link. It claims tasks from the dispatcher's shared
// queue, keeps up to the link's capacity in flight, and delivers
// completed results — all on the calling goroutine, with the link's
// reader feeding the results channel. It returns nil once the sweep is
// done (every cell delivered or quarantined), or ctx.Err() on
// cancellation; if the link dies — transport failure, heartbeat
// timeout, or a cell exceeding the dispatcher's execution deadline —
// every in-flight task goes back through the dispatcher's fault path
// (re-queue with backoff, or quarantine past the retry budget) and the
// link's failure is returned. In every case the link is detached on
// return, so a straggler result can never leak into a later lease.
func driveLink(ctx context.Context, l *Link, d *dispatch,
	jobFor func(sweep.Task) Job, deliver func(sweep.Task, JobResult)) error {
	capacity := l.Capacity()
	// Buffer headroom: up to capacity in-flight results of this lease,
	// plus up to capacity stragglers of a previous lease the worker was
	// still finishing — the reader must never block long enough to
	// stall the connection.
	results := make(chan JobResult, 2*capacity)
	l.Attach(results)
	defer l.Detach()

	// The lease nonce guards against ID collisions across leases: job
	// IDs are per-sweep task indexes, and a straggler from a canceled
	// earlier sweep could otherwise be mistaken for this sweep's cell
	// of the same index. Workers echo it verbatim.
	lease := leaseIDs.Add(1)
	inflight := make(map[int]inflightJob, capacity)
	// fault routes every undelivered claim through the dispatcher:
	// back on the shared queue (with backoff for repeat offenders) or
	// into quarantine past the retry budget.
	fault := func(cause error) {
		for _, in := range inflight {
			d.fault(in.task, cause)
		}
		clear(inflight)
	}
	// requeue returns claims without charging their retry budgets —
	// the cancellation path, where the sweep (not the cell) stopped.
	// The queue's capacity is an invariant, not a guess: a task is
	// always either queued, in exactly one lease's in-flight set, or
	// on one backoff timer, so this can never block.
	requeue := func() {
		for _, in := range inflight {
			d.queue <- in.task
		}
		clear(inflight)
	}
	handle := func(res JobResult) {
		if res.Lease != lease {
			return // a previous lease's straggler: drop
		}
		in, ok := inflight[res.ID]
		if !ok {
			return // already re-queued elsewhere: drop
		}
		delete(inflight, res.ID)
		deliver(in.task, res)
		d.finish()
	}
	// The per-cell execution deadline: a ticker at a quarter of the
	// bound (so overshoot stays small) checks the oldest in-flight
	// job; one over the bound condemns the whole link — the worker is
	// hung or drowning, and its healthy in-flight cells re-queue along
	// with the culprit, exactly like a death.
	var overdue <-chan time.Time
	if d.cellTimeout > 0 {
		t := time.NewTicker(max(d.cellTimeout/4, time.Millisecond))
		defer t.Stop()
		overdue = t.C
	}
	checkDeadline := func() error {
		for _, in := range inflight {
			if age := time.Since(in.sentAt); age > d.cellTimeout {
				err := fmt.Errorf("dist: cell %d exceeded the %s execution deadline (in flight %s)",
					in.task.Index, d.cellTimeout, age.Round(time.Millisecond))
				fault(err)
				l.fail(err)
				l.conn.Close()
				return err
			}
		}
		return nil
	}

	for {
		// Drain results until a pipeline slot frees up.
		for len(inflight) >= capacity {
			select {
			case <-d.done:
				return nil
			case <-ctx.Done():
				requeue()
				return ctx.Err()
			case <-l.Dead():
				fault(l.Err())
				return l.Err()
			case <-overdue:
				if err := checkDeadline(); err != nil {
					return err
				}
			case res := <-results:
				handle(res)
			}
		}
		// A task to fill it — while staying ready to deliver.
		var t sweep.Task
		claimed := false
		for !claimed {
			select {
			case <-d.done:
				return nil
			case <-ctx.Done():
				requeue()
				return ctx.Err()
			case <-l.Dead():
				fault(l.Err())
				return l.Err()
			case <-overdue:
				if err := checkDeadline(); err != nil {
					return err
				}
			case res := <-results:
				handle(res)
			case t = <-d.queue:
				claimed = true
			}
		}
		inflight[t.Index] = inflightJob{task: t, sentAt: time.Now()}
		j := jobFor(t)
		j.Lease = lease
		if err := l.Send(j); err != nil {
			// The write failed but the reader may not have noticed yet;
			// force the teardown so Dead closes and Err is set.
			l.conn.Close()
			fault(err)
			return err
		}
	}
}
