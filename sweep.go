package autofl

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"autofl/internal/sim"
	"autofl/internal/sweep"
	"autofl/internal/sweep/cache"
	"autofl/internal/sweep/dist"
	"autofl/internal/sweep/schedule"
)

// SweepGrid declares the paper's full evaluation grid — every
// workload, Table 5 setting, data scenario, variance environment, and
// §5.1/§6.3 policy — replicated the given number of times. Callers
// narrow the axes before running when they want a slice of it.
func SweepGrid(seed uint64, replicates int) sweep.Grid {
	g := sweep.Grid{Seed: seed, Replicates: replicates}
	for _, w := range Workloads() {
		g.Workloads = append(g.Workloads, string(w))
	}
	for _, s := range Settings() {
		g.Settings = append(g.Settings, string(s))
	}
	for _, d := range DataScenarios() {
		g.Data = append(g.Data, string(d))
	}
	for _, e := range Environments() {
		g.Envs = append(g.Envs, string(e))
	}
	for _, p := range Policies() {
		g.Policies = append(g.Policies, string(p))
	}
	return g
}

// sweepCell executes one grid cell: the cell's axis names select the
// scenario, the engine-derived seed replaces the scenario seed, and
// the run's headline metrics become the cell outcome. When traced,
// the outcome also carries the per-round sweep.RunTrace payload for
// the cache's horizon-prefix serving. Safe for concurrent use: every
// call constructs its own scenario, policy, and simulator.
func sweepCell(ctx context.Context, c sweep.Cell, seed uint64, maxRounds int, traced bool) (sweep.Outcome, error) {
	if err := ctx.Err(); err != nil {
		return sweep.Outcome{}, err
	}
	s := Scenario{
		Workload:  Workload(c.Workload),
		Setting:   Setting(c.Setting),
		Data:      DataScenario(c.Data),
		Env:       Environment(c.Env),
		Seed:      seed,
		MaxRounds: maxRounds,
	}
	if c.Mode != "" || c.Alpha != "" {
		spec := &AggregationSpec{Mode: AggregationMode(c.Mode)}
		if c.Alpha != "" {
			a, err := strconv.ParseFloat(c.Alpha, 64)
			if err != nil {
				return sweep.Outcome{}, fmt.Errorf("autofl: cell alpha %q: %w", c.Alpha, err)
			}
			spec.StalenessAlpha = a
		}
		s.Aggregation = spec
	}
	if c.Sample != "" && c.Devices == "" {
		return sweep.Outcome{}, fmt.Errorf("autofl: cell sample %q without a devices axis", c.Sample)
	}
	if c.Devices != "" {
		n, err := strconv.Atoi(c.Devices)
		if err != nil {
			return sweep.Outcome{}, fmt.Errorf("autofl: cell devices %q: %w", c.Devices, err)
		}
		sample := 0
		if c.Sample != "" {
			if sample, err = strconv.Atoi(c.Sample); err != nil {
				return sweep.Outcome{}, fmt.Errorf("autofl: cell sample %q: %w", c.Sample, err)
			}
		}
		s.Fleet = ScaledFleet(n, sample)
	}
	if c.Battery != "" {
		s.Battery = DefaultBattery(BatteryProfile(c.Battery))
	}
	sess, err := Open(s, Policy(c.Policy))
	if err != nil {
		return sweep.Outcome{}, err
	}
	res := sess.Run()
	out := sweep.OutcomeOf(res)
	if traced {
		out.Trace = sweep.NewRunTrace(res)
	}
	return out, nil
}

// SweepRunner adapts scenario runs to the sweep engine (see
// sweepCell). maxRounds bounds every run (0 selects the paper's
// 1000-round horizon).
func SweepRunner(maxRounds int) sweep.Runner {
	return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		return sweepCell(ctx, c, seed, maxRounds, false)
	}
}

// TracedSweepRunner is SweepRunner with per-round trace capture, so
// the cache can serve any shorter horizon from the entry. The trace
// never reaches sweep output — cache.Runner (or the distributed
// coordinator's commit path) strips it after recording. Sweep worker
// processes use it to serve traced jobs for cache-backed coordinators
// (see cmd/autofl-sweep -worker).
func TracedSweepRunner(maxRounds int) sweep.Runner {
	return func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
		return sweepCell(ctx, c, seed, maxRounds, true)
	}
}

// SweepRunners is the dist.RunnerFor bridge: it maps a job's (rounds,
// traced) parameters to the scenario runner executing it — the single
// wiring point between the scenario layer and every cell server
// (cmd/autofl-sweep -worker/-register) and control-plane daemon
// (cmd/autofl-sweepd), which cannot be reached from internal packages
// without an import cycle.
func SweepRunners(rounds int, traced bool) sweep.Runner {
	if traced {
		return TracedSweepRunner(rounds)
	}
	return SweepRunner(rounds)
}

// RunSweep executes the grid through Scenario.Run on a worker pool
// (see sweep.Run for the execution contract). It is the programmatic
// face of cmd/autofl-sweep; RunSweepWith adds caching and scheduling.
func RunSweep(ctx context.Context, g sweep.Grid, maxRounds int, opts sweep.Options) (*sweep.ResultStore, error) {
	return RunSweepWith(ctx, g, SweepOptions{MaxRounds: maxRounds, Options: opts})
}

// SweepOptions extends the engine options with the persistence and
// scheduling layers of cmd/autofl-sweep.
type SweepOptions struct {
	sweep.Options
	// MaxRounds bounds every run (0 selects the paper's 1000-round
	// horizon).
	MaxRounds int
	// Cache, when non-nil, serves previously completed cells from disk
	// and records newly executed ones (with per-round traces), so an
	// interrupted or extended grid re-runs only its missing cells and
	// a shorter-horizon request is answered by truncating longer
	// cached runs. The cache must have been opened with SweepSignature
	// of the same grid and horizon; a different grid seed simply never
	// hits.
	Cache *cache.Cache
	// CostSchedule claims pending cells in descending predicted-cost
	// order (calibrated from the cache's wall-clock observations when
	// available, FLOPs priors otherwise), with already-cached cells
	// priced at zero so real work drains first. Output is identical to
	// FIFO; only tail latency changes. Ignored when Options.Order is
	// already set.
	CostSchedule bool
	// Workers, when non-empty, farms every cell to autofl-sweep worker
	// processes at these addresses (see cmd/autofl-sweep -worker)
	// instead of executing in-process: RunSweepWith installs a
	// dist.PoolExecutor over dist.Dial(Workers) and forbids local
	// execution, so a distributed run either computes every cell
	// remotely (byte-identical to a local run, by per-cell seed
	// derivation) or surfaces the failure. Cache and CostSchedule
	// compose unchanged — hits are served locally by the coordinator,
	// misses ship to workers, and remote results commit back into the
	// cache by digest. Mutually exclusive with an explicit
	// Options.Executor.
	Workers []string
	// CellTimeout and RetryBudget tune the distributed executor's
	// failure containment: CellTimeout bounds one cell's remote
	// execution (0 = unbounded), and RetryBudget bounds how many times
	// a faulted cell is re-queued before it is quarantined with an
	// explicit per-cell error (0 selects the dist default, negative
	// quarantines on the first fault). Only meaningful with Workers.
	CellTimeout time.Duration
	RetryBudget int
	// Audit, when non-nil, is filled after the run — interrupted or
	// not — with what the run did: Cache's hits and misses, the cells
	// each worker completed (keyed by the address as given in
	// Workers), re-queues and quarantines, and cells that finished
	// with a per-cell error. cmd/autofl-sweep prints it as its final
	// stats line.
	Audit *dist.Audit
}

// SweepSignature is the cache signature of a (grid, horizon) pair:
// the grid master seed (the entry identity) plus the effective round
// horizon (how entries are served), normalized so the default (0) and
// an explicit 1000 behave identically. Only the seed keys entries —
// one directory serves every horizon, with shorter requests answered
// from longer cached runs by trace-prefix replay.
func SweepSignature(g sweep.Grid, maxRounds int) cache.Signature {
	if maxRounds <= 0 {
		maxRounds = sim.DefaultMaxRounds
	}
	return cache.Signature{GridSeed: g.Seed, Rounds: maxRounds}
}

// RunSweepWith executes the grid with optional result caching,
// cost-ordered scheduling, and distributed execution layered over the
// engine. Whatever the cache state, claim order, or cell placement,
// the exported JSON/CSV is byte-identical to a cold serial run of the
// same grid and seed.
func RunSweepWith(ctx context.Context, g sweep.Grid, o SweepOptions) (*sweep.ResultStore, error) {
	run := SweepRunner(o.MaxRounds)
	opts := o.Options
	if o.Cache != nil {
		// A cache opened under a different grid seed or horizon than
		// this sweep would record entries under the wrong identity;
		// fail fast instead of quietly polluting the store.
		if want := SweepSignature(g, o.MaxRounds); o.Cache.Signature() != want {
			return sweep.NewStore(), fmt.Errorf(
				"autofl: cache signature %+v does not match sweep signature %+v", o.Cache.Signature(), want)
		}
	}
	var remote *dist.PoolExecutor
	switch {
	case len(o.Workers) > 0:
		if opts.Executor != nil {
			return sweep.NewStore(), errors.New("autofl: Workers and an explicit Executor are mutually exclusive")
		}
		// The executor serves cache hits itself and commits remote
		// results by digest, so the runner must never execute: a guard
		// turns any local fallback into a loud per-cell error (which
		// also breaks byte-identity, so tests catch it structurally).
		remote = &dist.PoolExecutor{
			Source:      dist.Dial(o.Workers, dist.LinkOptions{}),
			Rounds:      SweepSignature(g, o.MaxRounds).Rounds,
			Cache:       o.Cache,
			CellTimeout: o.CellTimeout,
			RetryBudget: o.RetryBudget,
		}
		opts.Executor = remote
		run = func(ctx context.Context, c sweep.Cell, seed uint64) (sweep.Outcome, error) {
			return sweep.Outcome{}, errors.New("autofl: distributed sweep attempted local execution")
		}
	case o.Cache != nil:
		// Cached sweeps capture per-round traces so the entries can
		// serve shorter horizons later; the cache strips the trace
		// before outcomes reach the store, so output is identical to
		// the cache-free runner's.
		run = o.Cache.Runner(TracedSweepRunner(o.MaxRounds))
	}
	if o.CostSchedule && opts.Order == nil {
		model := schedule.Static()
		if o.Cache != nil {
			if obs := cacheObservations(o.Cache); len(obs) > 0 {
				model = schedule.Calibrate(obs)
			}
		}
		rounds := SweepSignature(g, o.MaxRounds).Rounds
		cells := g.Cells()
		opts.Order = schedule.Order(len(cells), func(i int) float64 {
			if o.Cache != nil && o.Cache.Has(cells[i]) {
				return 0
			}
			return model.Predict(cells[i].Workload, rounds)
		})
	}
	store, err := sweep.Run(ctx, g, run, opts)
	if o.Audit != nil {
		*o.Audit = dist.AuditOf(o.Cache, remote, store)
	}
	return store, err
}

// cacheObservations converts the cache's entries into the scheduler's
// calibration samples.
func cacheObservations(c *cache.Cache) []schedule.Observation {
	entries := c.Entries()
	obs := make([]schedule.Observation, 0, len(entries))
	for _, e := range entries {
		obs = append(obs, schedule.Observation{
			Workload: e.Result.Cell.Workload,
			Rounds:   e.Rounds,
			Seconds:  e.WallSeconds,
		})
	}
	return obs
}
