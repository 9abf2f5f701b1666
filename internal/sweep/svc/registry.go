package svc

import (
	"context"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autofl/internal/sweep/dist"
)

// ErrRegistryClosed is returned by Acquire after the registry shuts
// down.
var ErrRegistryClosed = errors.New("svc: registry closed")

// WorkerInfo is one registered worker as GET /v1/workers reports it.
type WorkerInfo struct {
	// Name is the worker's self-advertised label ("" when it sent
	// none); Addr is the connection's remote endpoint.
	Name string `json:"name,omitempty"`
	Addr string `json:"addr"`
	// Capacity is the advertised concurrent-job capacity; Served
	// counts results delivered over the connection's lifetime.
	Capacity int `json:"capacity"`
	Served   int `json:"served"`
	// State is "idle", "leased" (driving a sweep right now), or
	// "cooldown" (registered but benched after flapping; see Flaps).
	State       string    `json:"state"`
	ConnectedAt time.Time `json:"connected_at"`
	// Flaps counts this worker's consecutive abnormal disconnects —
	// evictions and transport deaths, not deliberate closes. A lease
	// that runs to completion resets it.
	Flaps int `json:"flaps,omitempty"`
}

// flapThreshold is the consecutive-flap count at which a worker is
// benched: a single death is routine fleet churn, a second in a row is
// not.
const flapThreshold = 2

// workerEntry is the registry's bookkeeping for one link.
type workerEntry struct {
	key         string // health identity: advertised name, else remote addr
	leased      bool
	benched     bool // held out of the idle pool during a cooldown
	connectedAt time.Time
}

// workerHealth scores one worker identity across connections. Links
// come and go (that is the definition of a flap); the health record
// persists under the worker's stable key so a worker that dies
// seconds after every (re-)registration accumulates flaps instead of
// looking newborn each time.
type workerHealth struct {
	flaps        int
	benchedUntil time.Time
}

// Registry is the daemon's worker pool: the canonical dist.Source.
// Workers arrive over two paths that end in the same place — a
// dist.Worker in register mode dials the registry listener (Serve
// accepts and handshakes it), or the registry itself maintains
// dial-out connections to a static fleet of listening workers
// (Maintain, the PR 5 direction, re-dialed with backoff when they
// drop). Either way the established Link joins the idle pool, wakes
// any sweep blocked on Acquire — that is how a mid-sweep joiner picks
// up queued cells — and is leased to one sweep at a time. A link whose
// connection dies is removed (idle) or evicted by its lease (leased);
// its in-flight cells re-queue through the executor's at-least-once
// path.
//
// Health scoring: abnormal disconnects count as flaps against the
// worker's stable identity (its advertised name, or the remote
// address for unnamed workers — name your workers if you want
// cooldowns to stick across reconnects). A worker at or past the flap
// threshold still registers, but sits out an exponential cooldown
// before it can be leased again, so a crash-looping worker cannot
// keep adopting cells only to kill them — that would burn the cells'
// retry budgets on a peer everyone can see is sick.
type Registry struct {
	// Links tunes every pooled link's handshake bound and heartbeat
	// (see dist.LinkOptions; the zero value selects the dist defaults).
	// Set before Serve/Maintain.
	Links dist.LinkOptions
	// CooldownBase and CooldownMax bound the exponential bench: a
	// worker at the threshold sits out CooldownBase, doubling per
	// further flap up to CooldownMax (defaults 1s, 30s).
	CooldownBase time.Duration
	CooldownMax  time.Duration

	mu     sync.Mutex
	idle   []*dist.Link
	info   map[*dist.Link]*workerEntry
	health map[string]*workerHealth
	notify chan struct{} // closed and replaced on every pool change
	closed bool
	ln     net.Listener

	evictions atomic.Int64

	done chan struct{}
	wg   sync.WaitGroup
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		info:   make(map[*dist.Link]*workerEntry),
		health: make(map[string]*workerHealth),
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}
}

func (r *Registry) cooldown(flaps int) time.Duration {
	base, cap := r.CooldownBase, r.CooldownMax
	if base <= 0 {
		base = time.Second
	}
	if cap <= 0 {
		cap = 30 * time.Second
	}
	shift := min(flaps-flapThreshold, 20)
	return min(base<<shift, cap)
}

// Evictions reports abnormal disconnects (flaps) observed over the
// registry's lifetime — the /v1/metrics eviction counter.
func (r *Registry) Evictions() int { return int(r.evictions.Load()) }

// goTracked runs fn on a registry-tracked goroutine; false once the
// registry closed (Close waits for every tracked goroutine, and the
// Add-under-lock discipline is what makes that wait race-free).
func (r *Registry) goTracked(fn func()) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		fn()
	}()
	return true
}

// wakeLocked broadcasts a pool change to every Acquire waiter.
// Callers hold r.mu.
func (r *Registry) wakeLocked() {
	close(r.notify)
	r.notify = make(chan struct{})
}

// Listen binds the registration listener at addr (":0" picks a free
// port) and starts accepting worker registrations until Close. It
// returns the bound address — valid immediately, so workers can be
// pointed at it without racing the accept loop.
func (r *Registry) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if err := r.ListenOn(ln); err != nil {
		ln.Close()
		return "", err
	}
	return ln.Addr().String(), nil
}

// ListenOn is Listen over an already-established listener — the seam
// the fault-injection tests use to put a chaos.Listener under the
// registry, so scripted registration faults (a dialer that freezes
// mid-handshake, a drop right after hello) exercise the genuine
// accept path. The registry owns ln from here on. Each accepted
// connection handshakes on its own goroutine — a silent dialer cannot
// stall later registrations — and joins the pool.
func (r *Registry) ListenOn(ln net.Listener) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRegistryClosed
	}
	r.ln = ln
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // Close closed the listener (or it failed terminally)
			}
			if !r.goTracked(func() {
				l, err := dist.NewLink(conn, r.Links)
				if err != nil {
					conn.Close()
					return
				}
				if !r.add(l, "") {
					l.Close()
				}
			}) {
				conn.Close()
				return
			}
		}
	}()
	return nil
}

// Addr is the registration listener's address ("" before Serve).
func (r *Registry) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Maintain keeps one dial-out connection to a listening worker at addr
// alive for the registry's lifetime: dial, handshake, pool the link,
// and when it dies re-dial with exponential backoff (100ms–5s, reset
// by a connection that served jobs). This is the static-fleet
// bootstrap — the daemon's -workers flag feeds it — so one deployment
// can mix legacy listen-mode workers with register-mode ones.
func (r *Registry) Maintain(addr string) {
	r.goTracked(func() {
		const minBackoff, maxBackoff = 100 * time.Millisecond, 5 * time.Second
		backoff := minBackoff
		for {
			if r.isClosed() {
				return
			}
			if l := r.dialWorker(addr); l != nil {
				served := l.Served()
				select {
				case <-l.Dead():
				case <-r.done:
					r.drop(l, false)
					return
				}
				r.drop(l, !errors.Is(l.Err(), dist.ErrLinkClosed))
				if l.Served() > served {
					backoff = minBackoff
				}
			}
			select {
			case <-time.After(backoff):
			case <-r.done:
				return
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
	})
}

// dialWorker dials and handshakes one static worker, pooling the link;
// nil when any step fails (the Maintain loop backs off and retries).
// The dialed address is the worker's health identity — stable across
// reconnects by construction.
func (r *Registry) dialWorker(addr string) *dist.Link {
	l, err := dist.DialLink(context.Background(), addr, r.Links)
	if err != nil {
		return nil
	}
	if !r.add(l, addr) {
		l.Close()
		return nil
	}
	return l
}

// add pools an established link under the health identity key (""
// derives it: the advertised name, else the remote address) and
// starts its death watcher; false once the registry closed. A link
// whose identity is in cooldown registers benched: present in the
// pool's books, invisible to Acquire until the cooldown lapses.
func (r *Registry) add(l *dist.Link, key string) bool {
	if key == "" {
		if key = l.Name(); key == "" {
			key = l.RemoteAddr()
		}
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	e := &workerEntry{key: key, connectedAt: time.Now()}
	r.info[l] = e
	wait := time.Duration(0)
	if h := r.health[key]; h != nil {
		wait = time.Until(h.benchedUntil)
	}
	if wait > 0 {
		e.benched = true
		r.wg.Add(1)
		go func() {
			// The unbench timer promotes the benched link to the idle
			// pool once the cooldown lapses — unless the link died (its
			// watcher dropped it from info) or the registry closed.
			defer r.wg.Done()
			t := time.NewTimer(wait)
			defer t.Stop()
			select {
			case <-t.C:
			case <-r.done:
				return
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			if _, ok := r.info[l]; !ok || r.closed {
				return
			}
			e.benched = false
			r.idle = append(r.idle, l)
			r.wakeLocked()
		}()
	} else {
		r.idle = append(r.idle, l)
		r.wakeLocked()
	}
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		// The watcher drops a link that dies while idle (a leased
		// link's death is observed by its lease, which Evicts). drop
		// tolerates either order, charging at most one flap per link.
		defer r.wg.Done()
		select {
		case <-l.Dead():
			r.drop(l, !errors.Is(l.Err(), dist.ErrLinkClosed))
		case <-r.done:
		}
	}()
	return true
}

// noteFlapLocked charges one abnormal disconnect against a worker
// identity, benching it once it crosses the threshold. Callers hold
// r.mu and have verified the link was still in the registry's books —
// that presence check is what makes flap accounting exactly-once when
// the watcher, a lease eviction, and Acquire's dead-idle sweep race
// to report the same death.
func (r *Registry) noteFlapLocked(key string) {
	r.evictions.Add(1)
	h := r.health[key]
	if h == nil {
		h = &workerHealth{}
		r.health[key] = h
	}
	h.flaps++
	if h.flaps >= flapThreshold {
		h.benchedUntil = time.Now().Add(r.cooldown(h.flaps))
	}
}

// drop forgets a link entirely (idle slice and info map) and closes
// it, charging a flap when the death was abnormal. Safe to call for
// an already-removed link (a no-op then, including the flap).
func (r *Registry) drop(l *dist.Link, flap bool) {
	l.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.info[l]
	if !ok {
		return
	}
	delete(r.info, l)
	for i, il := range r.idle {
		if il == l {
			r.idle = append(r.idle[:i], r.idle[i+1:]...)
			break
		}
	}
	if flap && !r.closed {
		r.noteFlapLocked(e.key)
	}
}

// Acquire implements dist.Source: it leases an idle worker link,
// blocking until one is available (a worker registering mid-sweep
// satisfies the wait) or ctx is done. Dead idle links are skipped and
// dropped on the way.
func (r *Registry) Acquire(ctx context.Context) (*dist.Link, error) {
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil, ErrRegistryClosed
		}
		for len(r.idle) > 0 {
			l := r.idle[len(r.idle)-1]
			r.idle = r.idle[:len(r.idle)-1]
			select {
			case <-l.Dead():
				if e, ok := r.info[l]; ok {
					if !errors.Is(l.Err(), dist.ErrLinkClosed) {
						r.noteFlapLocked(e.key)
					}
					delete(r.info, l)
				}
				continue
			default:
			}
			r.info[l].leased = true
			r.mu.Unlock()
			return l, nil
		}
		wait := r.notify
		r.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-r.done:
			return nil, ErrRegistryClosed
		}
	}
}

// Release implements dist.Source: a healthy link returns to the idle
// pool (waking waiters), and its identity's flap record clears — a
// lease that ran to completion is the definition of a recovered
// worker. A dead one is dropped.
func (r *Registry) Release(l *dist.Link) {
	select {
	case <-l.Dead():
		r.drop(l, !errors.Is(l.Err(), dist.ErrLinkClosed))
		return
	default:
	}
	r.mu.Lock()
	if e, ok := r.info[l]; ok && !r.closed {
		e.leased = false
		delete(r.health, e.key)
		r.idle = append(r.idle, l)
		r.wakeLocked()
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	l.Close()
}

// Evict implements dist.Source: a link whose lease observed a
// connection failure is closed, forgotten, and charged a flap. The
// worker behind it re-registers on its own (register mode) or is
// re-dialed (Maintain) — into a cooldown bench if it has been
// flapping.
func (r *Registry) Evict(l *dist.Link, err error) { r.drop(l, true) }

// Workers snapshots the registry for GET /v1/workers, sorted by label
// then address.
func (r *Registry) Workers() []WorkerInfo {
	r.mu.Lock()
	out := make([]WorkerInfo, 0, len(r.info))
	for l, e := range r.info {
		state := "idle"
		switch {
		case e.leased:
			state = "leased"
		case e.benched:
			state = "cooldown"
		}
		flaps := 0
		if h := r.health[e.key]; h != nil {
			flaps = h.flaps
		}
		out = append(out, WorkerInfo{
			Name:        l.Name(),
			Addr:        l.RemoteAddr(),
			Capacity:    l.Capacity(),
			Served:      l.Served(),
			State:       state,
			ConnectedAt: e.connectedAt,
			Flaps:       flaps,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Len reports the number of registered workers (idle and leased).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.info)
}

func (r *Registry) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Close shuts the registry down: the listener stops accepting, every
// pooled link closes (a leased link's death re-queues its cells to
// nobody — callers should drain sweeps first), Acquire waiters get
// ErrRegistryClosed, and Close waits for the watcher/maintainer
// goroutines. Idempotent.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.done)
	links := make([]*dist.Link, 0, len(r.info))
	for l := range r.info {
		links = append(links, l)
	}
	r.info = make(map[*dist.Link]*workerEntry)
	r.idle = nil
	ln := r.ln
	r.wakeLocked()
	r.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, l := range links {
		l.Close()
	}
	r.wg.Wait()
	return err
}
