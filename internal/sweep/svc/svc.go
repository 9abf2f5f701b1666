// Package svc is the sweep control plane: a long-running service that
// accepts experiment grids over an HTTP+JSON API, runs them through
// the sweep engine on a registry of workers (or an in-process pool),
// and serves results from a shared persistent cache — the
// service-boundary form of the one-shot coordinator cmd/autofl-sweep
// has always been.
//
// The design leans on the invariants the lower layers already
// guarantee. Cell outcomes are pure functions of (cell, seed,
// horizon), so a grid served by any mix of cache hits, local
// execution, and remote workers is byte-identical to a cold serial
// run. The cache's content addressing makes the shared store safe for
// overlapping grids from concurrent clients: each job opens its own
// handle under the grid's seed, reads every commit earlier jobs
// appended, and executes only its non-overlapping cells. And the
// dist layer's at-least-once lease discipline means worker death,
// re-registration, and mid-sweep join are registry events, not job
// failures.
//
// Jobs move queued → running → done/failed/canceled through a bounded
// queue and a fixed number of grid slots; Drain stops intake (503),
// lets running grids finish (or cancels them at the deadline), and
// leaves still-queued jobs open in the journal so a restarted daemon
// resumes them under their IDs.
package svc

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"sync"
	"time"

	"autofl/internal/sim"
	"autofl/internal/sweep"
	"autofl/internal/sweep/cache"
	"autofl/internal/sweep/dist"
)

// Job states. A job is terminal in StateDone, StateFailed, or
// StateCanceled.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Terminal reports whether a job state is final.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Submission failure modes the HTTP layer maps to status codes.
var (
	// ErrDraining rejects submissions during shutdown (503).
	ErrDraining = errors.New("svc: draining, not accepting submissions")
	// ErrQueueFull rejects submissions past the queue bound (429).
	ErrQueueFull = errors.New("svc: job queue full")
	// ErrUnknownJob names a job ID the service has never seen (404).
	ErrUnknownJob = errors.New("svc: unknown job")
	// ErrNotFinished guards result fetches of unfinished jobs (409).
	ErrNotFinished = errors.New("svc: job not finished")
	// ErrBadSpec rejects a spec past the submission limits or with a
	// repeated axis value (400).
	ErrBadSpec = errors.New("svc: bad spec")
)

// Submission limits. They are constants, not Config fields: they do not
// tune the daemon, they keep one mistyped or hostile spec from taking it
// down. A grid's cells are allocated up front, and every cell's run
// preallocates its per-round trace at the full horizon, so an unbounded
// spec is an out-of-memory crash no later check can recover from. Both
// leave wide room over what the paper needs: its full grid is 1,536
// cells and its horizon 1,000 rounds.
const (
	maxJobCells  = 100_000
	maxJobRounds = 10_000
)

// validateSpec checks a spec against the submission limits and the
// grid against repeated axis values.
func validateSpec(spec JobSpec) error {
	if n := spec.Grid.Size(); n > maxJobCells {
		return fmt.Errorf("%w: grid expands to %d cells, over the limit of %d", ErrBadSpec, n, maxJobCells)
	}
	if spec.Rounds > maxJobRounds {
		return fmt.Errorf("%w: horizon of %d rounds, over the limit of %d", ErrBadSpec, spec.Rounds, maxJobRounds)
	}
	if err := spec.Grid.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return nil
}

// JobSpec is one submitted sweep: the grid, the round horizon (0
// selects the paper's default), and an optional client label.
type JobSpec struct {
	Grid   sweep.Grid `json:"grid"`
	Rounds int        `json:"rounds,omitempty"`
	Name   string     `json:"name,omitempty"`
}

// JobStatus is the wire view of one job, live while it runs: Done
// counts cells as the executor's emit path delivers them, and the
// embedded dist.Audit — cache counters from the job's shared-store
// handle, per-worker cells and faults from its executor — is
// refreshed with every delivered cell. FailedCells is filled when the
// job finishes. The audit's fields sit in the JSON object between
// Done and Error.
type JobStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	State  string `json:"state"`
	Rounds int    `json:"rounds"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`

	dist.Audit

	Error string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// job is the service-side record behind a JobStatus.
type job struct {
	id   string
	spec JobSpec

	mu        sync.Mutex
	state     string
	rounds    int
	total     int
	done      int
	audit     dist.Audit
	store     *sweep.ResultStore
	err       string
	cancel    context.CancelFunc
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// status snapshots the job under its lock.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID: j.id, Name: j.spec.Name, State: j.state,
		Rounds: j.rounds, Total: j.total, Done: j.done, Audit: j.audit,
		Error: j.err, SubmittedAt: j.submitted,
	}
	s.Workers = maps.Clone(j.audit.Workers)
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	return s
}

// Config assembles a Service. Runners is required — svc cannot import
// the root package, so the daemon injects the scenario-execution
// bridge (autofl.SweepRunners) the same way workers do.
type Config struct {
	// Runners maps (rounds, traced) to the runner executing one cell.
	// With a Registry it is unused locally (cells run on workers); in
	// local mode it is the execution path, wrapped by the cache.
	Runners dist.RunnerFor
	// Registry, when non-nil, executes every non-cached cell on
	// registered workers through a dist.PoolExecutor. Nil selects
	// in-process execution.
	Registry *Registry
	// LocalParallel is the in-process pool size for local mode
	// (values < 1 select GOMAXPROCS).
	LocalParallel int
	// CacheDir is the shared result store root; each grid seed gets
	// its own subdirectory (the cache pins a directory to one seed).
	// "" disables caching — every submission executes cold.
	CacheDir string
	// QueueLimit bounds queued (not yet running) jobs; default 64.
	QueueLimit int
	// MaxConcurrent bounds grids running at once; default 1, which
	// also serializes overlapping submissions so the second is served
	// from the first's cache commits.
	MaxConcurrent int
	// CellTimeout and RetryBudget tune the registry executor's failure
	// containment (see dist.PoolExecutor). Zero values select the dist
	// defaults.
	CellTimeout time.Duration
	RetryBudget int
}

// Service is the control plane: submit/status/result/cancel over a
// bounded queue of jobs and a fixed number of concurrent grid slots.
// Create with New, expose with Handler, stop with Drain (graceful)
// or Close (immediate).
type Service struct {
	cfg Config

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	seq      int
	draining bool
	queue    chan *job

	journal *journal
	resumed int // journal-recovered jobs re-submitted at startup

	runners sync.WaitGroup
}

// ResumedJobs reports how many journal-recovered jobs this daemon
// re-submitted at startup (the journal_resumed_total metric).
func (s *Service) ResumedJobs() int { return s.resumed }

// New starts a service: MaxConcurrent grid-runner goroutines over a
// QueueLimit-bounded queue. Jobs a previous daemon accepted but never
// finished (drained, or cut off by a crash) are re-submitted from the
// journal under CacheDir immediately, ahead of any new intake.
func New(cfg Config) (*Service, error) {
	if cfg.Runners == nil {
		return nil, errors.New("svc: Config.Runners is required")
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	// The journal holds jobs the previous daemon accepted but never
	// finished: the ones it drained, and any it was killed mid-grid on.
	jl, pending, err := openJournal(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		jobs:    make(map[string]*job),
		journal: jl,
		// Resumed specs ride ahead of the bound so a full persisted
		// queue never fails the restart that is trying to honor it.
		queue: make(chan *job, cfg.QueueLimit+len(pending)),
	}
	s.mu.Lock()
	// Resumed jobs keep their original IDs: a client that submitted
	// before the restart polls the same ID across it and gets its
	// answer. Re-execution is cheap, not wasteful — every cell the
	// cache committed before a crash is served as a hit, so the resumed
	// run executes only the genuinely unfinished cells and its output
	// is byte-identical to an uninterrupted run.
	for _, r := range pending {
		j := s.resumeJobLocked(r.ID, r.Spec)
		// A journal from a daemon without the submission limits, or a
		// damaged one, can hold a spec Submit would refuse; run, it
		// would crash every restart that resumes it.
		if err := validateSpec(r.Spec); err != nil {
			j.state, j.err, j.finished = StateFailed, err.Error(), time.Now()
			s.journal.terminal(j.id, StateFailed)
			continue
		}
		s.queue <- j
		s.resumed++
	}
	s.mu.Unlock()
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.runners.Add(1)
		go func() {
			defer s.runners.Done()
			for {
				select {
				case j, ok := <-s.queue:
					if !ok {
						return
					}
					s.runJob(j)
				case <-s.ctx.Done():
					return
				}
			}
		}()
	}
	return s, nil
}

// newJobLocked registers a fresh queued job record and journals its
// acceptance. Callers hold s.mu.
func (s *Service) newJobLocked(spec JobSpec) *job {
	s.seq++
	j := s.recordJobLocked(fmt.Sprintf("job-%06d", s.seq), spec)
	s.journal.accepted(j.id, spec)
	return j
}

// resumeJobLocked registers a journal-recovered job under its original
// ID, advancing the sequence counter past it so fresh submissions
// never collide. The acceptance record is already in the compacted
// journal — openJournal rewrote it — so nothing is appended here.
func (s *Service) resumeJobLocked(id string, spec JobSpec) *job {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.seq {
		s.seq = n
	}
	return s.recordJobLocked(id, spec)
}

// recordJobLocked is the shared queued-job constructor behind
// newJobLocked and resumeJobLocked.
func (s *Service) recordJobLocked(id string, spec JobSpec) *job {
	j := &job{
		id:        id,
		spec:      spec,
		state:     StateQueued,
		rounds:    normalizeRounds(spec.Rounds),
		total:     spec.Grid.Size(),
		submitted: time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j
}

// normalizeRounds maps the spec's horizon to the effective one (0
// selects the paper's default), mirroring the root package so
// "default" and "explicit 1000" share cache entries.
func normalizeRounds(r int) int {
	if r <= 0 {
		return sim.DefaultMaxRounds
	}
	return r
}

// Submit enqueues a sweep, returning its queued status. It fails fast
// with ErrBadSpec on a spec validateSpec refuses, ErrDraining during
// shutdown and ErrQueueFull past the bound — backpressure, not
// buffering, is the contract.
func (s *Service) Submit(spec JobSpec) (JobStatus, error) {
	if err := validateSpec(spec); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	// Queue sends happen only here, under s.mu with draining false;
	// Drain closes the queue under the same lock after flipping the
	// flag — the pair is what makes close racing a send impossible.
	if len(s.queue) >= s.cfg.QueueLimit {
		s.mu.Unlock()
		return JobStatus{}, ErrQueueFull
	}
	j := s.newJobLocked(spec)
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		return JobStatus{}, ErrQueueFull
	}
	s.mu.Unlock()
	return j.status(), nil
}

// Status reports one job.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return j.status(), nil
}

// Jobs lists every job in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Result returns a finished job's store (ErrNotFinished before
// StateDone; a failed or canceled job has no servable result).
func (s *Service) Result(id string) (*sweep.ResultStore, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.store == nil {
		return nil, fmt.Errorf("%w (state %s)", ErrNotFinished, j.state)
	}
	return j.store, nil
}

// Cancel stops a job: a queued one is marked canceled in place (the
// runner skips it on dequeue), a running one has its context
// canceled. Canceling a terminal job is a no-op.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.finished = time.Now()
		s.journal.terminal(j.id, StateCanceled)
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return nil
}

// Draining reports whether the service has stopped accepting
// submissions.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// runJob executes one dequeued job on the caller's grid slot.
func (s *Service) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	rounds := j.rounds
	spec := j.spec
	j.mu.Unlock()
	defer cancel()
	s.journal.started(j.id)

	var c *cache.Cache
	if s.cfg.CacheDir != "" {
		// Per-seed subdirectory: the cache pins a directory to one
		// grid seed (a mismatch invalidates it), and overlap reuse
		// only exists within a seed anyway. A fresh handle per job
		// reads every commit concurrent earlier jobs appended — the
		// shared-store mechanism behind cross-client reuse.
		dir := filepath.Join(s.cfg.CacheDir, fmt.Sprintf("seed-%d", spec.Grid.Seed))
		var err error
		c, err = cache.Open(dir, cache.Signature{GridSeed: spec.Grid.Seed, Rounds: rounds})
		if err != nil {
			s.finishJob(j, nil, dist.Audit{}, err)
			return
		}
		defer c.Close()
	}

	var pe *dist.PoolExecutor
	runOpts := sweep.Options{
		OnProgress: func(p sweep.Progress) {
			a := dist.AuditOf(c, pe, nil)
			j.mu.Lock()
			j.done = p.Done
			j.audit = a
			j.mu.Unlock()
		},
	}
	var run sweep.Runner
	if s.cfg.Registry != nil {
		pe = &dist.PoolExecutor{
			Source: s.cfg.Registry, Rounds: rounds, Cache: c,
			CellTimeout: s.cfg.CellTimeout, RetryBudget: s.cfg.RetryBudget,
		}
		runOpts.Executor = pe
		run = func(context.Context, sweep.Cell, uint64) (sweep.Outcome, error) {
			return sweep.Outcome{}, errors.New("svc: local execution disabled in registry mode")
		}
	} else {
		run = s.cfg.Runners(rounds, c != nil)
		if c != nil {
			run = c.Runner(run)
		}
		runOpts.Parallel = s.cfg.LocalParallel
	}

	store, err := sweep.Run(ctx, spec.Grid, run, runOpts)
	s.finishJob(j, store, dist.AuditOf(c, pe, store), err)
}

// finishJob records a job's terminal state and final audit, and
// journals the transition.
func (s *Service) finishJob(j *job, store *sweep.ResultStore, audit dist.Audit, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	j.audit = audit
	if store != nil {
		j.done = store.Len()
	}
	switch {
	case err == nil:
		j.state = StateDone
		j.store = store
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.err = "canceled"
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	state := j.state
	j.mu.Unlock()
	s.journal.terminal(j.id, state)
}

// Drain shuts the service down gracefully: intake stops (Submit
// returns ErrDraining, the HTTP layer 503), still-queued jobs are left
// without a terminal journal record so the next daemon over the same
// CacheDir resumes them under their IDs, and running grids are given
// until ctx's deadline to finish before being canceled. Drain returns
// once every grid slot has stopped.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	// Pull every not-yet-running job off the queue: those jobs are
	// resumed by the next daemon, not executed — a drain should end
	// promptly even with a deep queue. Still under s.mu, so no Submit
	// can send between the drain and the close.
	var queued []*job
drain:
	for {
		select {
		case j := <-s.queue:
			queued = append(queued, j)
		default:
			break drain
		}
	}
	close(s.queue)
	s.mu.Unlock()

	for _, j := range queued {
		j.mu.Lock()
		if j.state == StateQueued {
			// Canceled here, but not in the journal: the restart
			// resumes it.
			j.state = StateCanceled
			j.err = "drained: resumes on restart"
			j.finished = time.Now()
		}
		j.mu.Unlock()
	}

	stopped := make(chan struct{})
	go func() {
		s.runners.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-ctx.Done():
		// Deadline: cancel the running grids and wait for the slots
		// to observe it.
		s.cancel()
		<-stopped
	}
	s.cancel()
	s.journal.Close()
	return nil
}

// Close stops the service immediately: running grids are canceled and
// queued jobs are left to the next daemon, as by Drain. Idempotent.
func (s *Service) Close() error {
	s.cancel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Drain(ctx)
}
