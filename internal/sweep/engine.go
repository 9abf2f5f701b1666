package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Outcome is the measurement a Runner produces for one cell: the
// headline scalars of a sim.Result (see OutcomeOf; the accuracy and
// reward traces are dropped: sweeps aggregate scalars).
type Outcome struct {
	Converged       bool    `json:"converged"`
	Rounds          int     `json:"rounds"`
	TimeToTargetSec float64 `json:"time_to_target_sec"`
	EnergyToTargetJ float64 `json:"energy_to_target_j"`
	GlobalPPW       float64 `json:"global_ppw"`
	LocalPPW        float64 `json:"local_ppw"`
	FinalAccuracy   float64 `json:"final_accuracy"`
	// MeanStaleness is the run-level mean update staleness; always 0
	// (and omitted) under synchronous aggregation, so legacy outcomes
	// keep their exact JSON bytes.
	MeanStaleness float64 `json:"mean_staleness,omitempty"`
	// ParticipationJain and BatteryMeanFrac summarize the battery
	// subsystem at the end of the run: Jain's fairness index over
	// cumulative per-device participation and the final-round mean
	// state of charge. Always 0 (and omitted) for cells without a
	// battery model, keeping legacy outcomes byte-identical.
	ParticipationJain float64 `json:"participation_jain,omitempty"`
	BatteryMeanFrac   float64 `json:"battery_mean_frac,omitempty"`
	// Trace is the optional per-round payload a tracing runner
	// attaches for the persistent cache's horizon-prefix serving
	// (trace.go). It rides the runner chain only: the cache strips it
	// before outcomes reach the ResultStore, so exported JSON/CSV
	// never carries traces.
	Trace *RunTrace `json:"trace,omitempty"`
}

// Result is one executed cell: the cell, the seed it ran with, and
// either its outcome or the error (or recovered panic) that stopped it.
type Result struct {
	Cell    Cell    `json:"cell"`
	Seed    uint64  `json:"seed"`
	Outcome Outcome `json:"outcome"`
	Err     string  `json:"err,omitempty"`
}

// Runner executes one cell with its derived seed. Implementations must
// be safe for concurrent use: the engine invokes one call per cell from
// many goroutines.
type Runner func(ctx context.Context, cell Cell, seed uint64) (Outcome, error)

// Task is one schedulable unit of a sweep: a cell, its derived seed,
// and its index in the grid's deterministic expansion. The index is
// the result key — executors may complete tasks in any order, on any
// machine, and the output is still keyed by cell identity.
type Task struct {
	Index int    `json:"index"`
	Cell  Cell   `json:"cell"`
	Seed  uint64 `json:"seed"`
}

// Executor is the execution strategy of a sweep: it runs every task
// and delivers each completed Result through emit, keyed by the task's
// Index. Run hands tasks in claim order (Options.Order already
// applied) and serializes emit, which tolerates duplicate deliveries
// of an index (first wins) — so an at-least-once executor, like a
// distributed coordinator re-queuing a lost worker's cells, needs no
// dedup of its own. Execute returns once every task has been emitted,
// or earlier with an error when ctx is canceled or the executor can
// make no further progress; results emitted before the error are kept.
//
// The Runner is the local execution path. LocalExecutor invokes it
// per task; a remote executor may ignore it and execute cells
// elsewhere, as long as the produced results are identical — cell
// outcomes are pure functions of (cell, seed, horizon), so placement
// can never change output.
type Executor interface {
	Execute(ctx context.Context, tasks []Task, run Runner, emit func(index int, r Result)) error
}

// Progress reports one completed cell to an Options.OnProgress
// callback.
type Progress struct {
	// Done counts completed cells (including errored ones); Total is
	// the grid size.
	Done, Total int
	// Result is the cell that just finished.
	Result Result
}

// Options tune a sweep run.
type Options struct {
	// Parallel is the worker-pool size of the default in-process
	// executor; values < 1 select GOMAXPROCS. Ignored when Executor is
	// set (an explicit LocalExecutor carries its own pool size).
	Parallel int
	// Executor, when non-nil, replaces the default in-process pool as
	// the execution strategy (e.g. internal/sweep/dist's PoolExecutor
	// over dist.Dial, which farms cells to worker processes). Nil
	// selects &LocalExecutor{Parallel: Parallel}. The choice of
	// executor never affects output, only where and how fast cells run.
	Executor Executor
	// OnProgress, when set, is invoked after each cell completes. Calls
	// are serialized; completion order is nondeterministic under
	// parallelism (the result *contents* are not).
	OnProgress func(Progress)
	// Order, when non-nil, is the claim order of the expanded cells:
	// workers execute cells[Order[0]], cells[Order[1]], … instead of
	// expansion (FIFO) order. It must be a permutation of
	// [0, grid.Size()); Run rejects anything else. Claim order never
	// affects output — results are keyed by cell identity and every
	// exported view sorts — it only shapes the pool's tail latency
	// (see internal/sweep/schedule).
	Order []int
}

// validOrder reports whether order is a permutation of [0, n).
func validOrder(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}

// Run expands the grid and executes every cell through the runner on
// the configured executor (the in-process pool by default). It returns
// a store holding the results of all cells that ran (all of them,
// unless ctx was canceled or the executor failed — then the partial
// set — with the executor's error returned alongside).
//
// A panicking cell is isolated: the panic is recovered into that
// cell's Result.Err and the sweep continues. Results are keyed by the
// cell's position in the deterministic expansion, so the store's
// sorted views are identical for any Parallel value — and for any
// Executor.
func Run(ctx context.Context, g Grid, run Runner, opts Options) (*ResultStore, error) {
	cells := g.Cells()
	if opts.Order != nil && !validOrder(opts.Order, len(cells)) {
		return NewStore(), fmt.Errorf("sweep: Order is not a permutation of [0, %d)", len(cells))
	}
	// Tasks in claim order, each carrying its expansion index (the
	// result key) and derived seed, so executors need neither the grid
	// nor the claim permutation.
	tasks := make([]Task, len(cells))
	for i := range tasks {
		j := i
		if opts.Order != nil {
			j = opts.Order[i]
		}
		tasks[i] = Task{Index: j, Cell: cells[j], Seed: g.CellSeed(cells[j])}
	}

	var (
		results  = make([]Result, len(cells))
		executed = make([]bool, len(cells))
		done     int
		mu       sync.Mutex // guards results/executed/done, serializes OnProgress
	)
	emit := func(i int, r Result) {
		mu.Lock()
		defer mu.Unlock()
		if i < 0 || i >= len(results) || executed[i] {
			// Out-of-contract index or a duplicate delivery from an
			// at-least-once executor: first result wins. Duplicates are
			// identical by the determinism guarantee anyway.
			return
		}
		results[i] = r
		executed[i] = true
		done++
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{Done: done, Total: len(cells), Result: r})
		}
	}

	exec := opts.Executor
	if exec == nil {
		exec = &LocalExecutor{Parallel: opts.Parallel}
	}
	err := exec.Execute(ctx, tasks, run, emit)

	store := NewStore()
	mu.Lock()
	for i := range results {
		if executed[i] {
			store.Add(results[i])
		}
	}
	mu.Unlock()
	return store, err
}

// LocalExecutor is the default execution strategy: a pool of
// goroutines claiming tasks in order from a shared counter, each cell
// executed in-process through the runner. It is the extracted form of
// the engine's original hard-wired pool and produces byte-identical
// output to it.
type LocalExecutor struct {
	// Parallel is the pool size; values < 1 select GOMAXPROCS.
	Parallel int
}

// Execute implements Executor.
func (e *LocalExecutor) Execute(ctx context.Context, tasks []Task, run Runner, emit func(int, Result)) error {
	workers := e.Parallel
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var (
		next int64 = -1
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(tasks) || ctx.Err() != nil {
					return
				}
				emit(tasks[i].Index, ExecuteTask(ctx, tasks[i], run))
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// ExecuteTask runs one task through the runner, converting an error
// return or a panic into the Result's Err field. It is the shared
// per-cell execution step of every executor — the local pool here and
// the worker processes of internal/sweep/dist — so panic isolation
// behaves identically wherever a cell runs.
func ExecuteTask(ctx context.Context, t Task, run Runner) (r Result) {
	r = Result{Cell: t.Cell, Seed: t.Seed}
	defer func() {
		if p := recover(); p != nil {
			r.Outcome = Outcome{}
			r.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	out, err := run(ctx, t.Cell, t.Seed)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Outcome = out
	return r
}

// Map runs fn over the index range [0, n) on a worker pool of the
// given size (values < 1 select GOMAXPROCS) and returns the results in
// index order, so output is independent of scheduling. It is the
// primitive the per-figure sweeps of internal/experiments submit their
// cells through. A panic in fn aborts the remaining unclaimed work and
// is re-raised on the caller's goroutine once in-flight calls drain.
func Map[T any](parallel, n int, fn func(i int) T) []T {
	return MapOrder(parallel, n, nil, fn)
}

// MapOrder is Map with an explicit claim order: workers execute
// fn(order[0]), fn(order[1]), … while results stay in index order. A
// nil order is FIFO; anything that is not a permutation of [0, n)
// panics (a programmer error, like an out-of-range index). The figure
// runners of internal/experiments use it to start their costliest
// configurations first.
func MapOrder[T any](parallel, n int, order []int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if order != nil && !validOrder(order, n) {
		panic(fmt.Sprintf("sweep: MapOrder order is not a permutation of [0, %d)", n))
	}
	workers := parallel
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	out := make([]T, n)
	var (
		next    int64 = -1
		aborted atomic.Bool
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || aborted.Load() {
					return
				}
				if order != nil {
					i = order[i]
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							aborted.Store(true)
							panicMu.Lock()
							if panicV == nil {
								panicV = p
							}
							panicMu.Unlock()
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
	return out
}
