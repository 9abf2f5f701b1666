// Command autofl-sweep runs declarative grids of AutoFL scenarios —
// workloads × settings × data scenarios × environments × policies ×
// seed replicates — on a worker pool, and exports per-cell results
// plus mean/stddev replicate summaries as JSON or CSV.
//
// Cell seeds derive deterministically from the grid seed and the cell
// key, so output is byte-identical for any -parallel value; replicate
// the paper's evaluation once, in parallel, instead of figure by
// figure.
//
// Examples:
//
//	autofl-sweep -list                      # show the axis values
//	autofl-sweep                            # full grid, GOMAXPROCS workers
//	autofl-sweep -parallel 1                # serial reference run
//	autofl-sweep -workloads CNN-MNIST -envs field \
//	    -policies FedAvg-Random,AutoFL -replicates 3 \
//	    -rounds 200 -format csv -out sweep.csv
//
// Aggregation regimes and population scale are grid axes too:
// -async-modes crosses synchronous against asynchronous and
// semi-asynchronous aggregation, -alphas spans staleness-weighting
// exponents for the async regimes, and -devices/-samples sweep
// synthetic population sizes with sampled per-round cohorts:
//
//	autofl-sweep -workloads CNN-MNIST -async-modes sync,async -rounds 200
//	autofl-sweep -async-modes async,semi-async -alphas 0.3,0.5,1 \
//	    -devices 100000 -samples 512 -rounds 100
//
// The battery subsystem adds one more axis: -battery-profiles attaches
// the per-device battery model under the named harvesting presets.
// -policies also takes the battery-aware baselines Battery-Weighted and
// All-Available ('all' stays the paper's eight policies):
//
//	autofl-sweep -workloads CNN-MNIST -battery-profiles none,charger \
//	    -policies FedAvg-Random,Battery-Weighted -rounds 100 -format csv
//
// With -cache-dir, every completed cell is persisted with its
// per-round trace, so an interrupted run resumes where it stopped, an
// extended grid executes only its new cells, and a request at a
// shorter horizon is served by truncating longer cached runs — a grid
// swept at -rounds 1000 answers a later -rounds 200 query without
// executing a single cell, byte-identical to a cold 200-round sweep.
// (A longer horizon than any cached run re-executes only the
// uncached/unserviceable cells.) -resume=false re-runs everything
// while refreshing the cache. -schedule cost claims the costliest
// pending cells first (output is byte-identical either way), and
// -cache-gc compacts the store and exits:
//
//	autofl-sweep -cache-dir sweep.cache -rounds 1000 -out grid.json
//	autofl-sweep -cache-dir sweep.cache -rounds 200 \
//	    -out grid200.json               # served entirely from the cache
//	autofl-sweep -cache-dir sweep.cache -cache-gc
//
// One grid can span machines: -worker turns the process into a cell
// server, and -workers makes it a coordinator farming cells to those
// servers instead of executing in-process. Per-cell seeds derive from
// the grid seed and cell identity — never from placement — so a
// distributed run's JSON/CSV is byte-identical to a local (or serial)
// run of the same grid and seed. Cache, cost scheduling, and
// cross-horizon serving compose unchanged: the coordinator serves
// cached cells locally and commits remote results into -cache-dir by
// digest, and a worker lost mid-grid has its claimed cells re-queued
// to the survivors:
//
//	autofl-sweep -worker :7070                      # on each machine
//	autofl-sweep -workers host-a:7070,host-b:7070 \
//	    -cache-dir sweep.cache -rounds 1000 -out grid.json
//
// -workers also accepts @file — one address per line, '#' comments —
// shared with autofl-sweepd's static-fleet flag.
//
// Grids can also be served by a long-running control plane instead of
// a one-shot coordinator: autofl-sweepd accepts submissions over
// HTTP, executes them on registered workers, and shares one result
// cache across clients, so overlapping grids from different clients
// execute each cell once. -register turns this process into such a
// daemon's worker (re-dialing with backoff when the connection
// drops), and -server submits the grid to a daemon, polls it, and
// fetches the result — byte-identical to a local run:
//
//	autofl-sweepd -listen :7170 -registry :7171 -cache-dir svc.cache
//	autofl-sweep -register host:7171 -name rack1    # on each machine
//	autofl-sweep -server http://host:7170 -rounds 1000 -out grid.json
//
// Every run, local or -server, ends with the same stats line on
// stderr — cells, wall-clock, cache hits (incl. prefix replays)/misses,
// per-worker cell counts, and re-queues, quarantines and failed cells
// when there were any — so warm and distributed runs are auditable at
// a glance.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"autofl"
	"autofl/internal/sweep"
	"autofl/internal/sweep/cache"
	"autofl/internal/sweep/dist"
	"autofl/internal/sweep/svc"
)

func main() {
	var (
		workloads  = flag.String("workloads", "all", "comma-separated workloads, or 'all'")
		settings   = flag.String("settings", "all", "comma-separated (B,E,K) settings, or 'all'")
		dataAxis   = flag.String("data", "all", "comma-separated data scenarios, or 'all'")
		envs       = flag.String("envs", "all", "comma-separated environments, or 'all'")
		policies   = flag.String("policies", "all", "comma-separated policies, or 'all' for the paper's eight (Battery-Weighted and All-Available are named explicitly)")
		asyncModes = flag.String("async-modes", "", "comma-separated aggregation regimes (sync, async, semi-async) as a grid axis (empty = sync only)")
		alphas     = flag.String("alphas", "", "comma-separated staleness exponents as a grid axis (requires -async-modes; crossing with 'sync' yields loud per-cell errors — sweep sync separately)")
		devicesAx  = flag.String("devices", "", "comma-separated population sizes as a grid axis (empty = explicit testbed fleet)")
		samplesAx  = flag.String("samples", "", "comma-separated per-round cohort sizes as a grid axis (requires -devices)")
		batteries  = flag.String("battery-profiles", "", "comma-separated battery harvesting presets (none, charger, solar-diurnal) as a grid axis (empty = no battery model)")
		replicates = flag.Int("replicates", 1, "seed replicates per cell")
		seed       = flag.Uint64("seed", 42, "grid master seed")
		parallel   = flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
		rounds     = flag.Int("rounds", 0, "max rounds per run (0 = the paper's 1000)")
		out        = flag.String("out", "-", "output path ('-' = stdout)")
		format     = flag.String("format", "json", "output format: json or csv")
		progress   = flag.Bool("progress", false, "print per-cell progress to stderr")
		list       = flag.Bool("list", false, "list axis values and exit")
		cacheDir   = flag.String("cache-dir", "", "persistent result cache directory (empty = no cache)")
		resume     = flag.Bool("resume", true, "serve cells already in -cache-dir instead of re-running them")
		cacheGC    = flag.Bool("cache-gc", false, "compact -cache-dir (drop superseded duplicates and mismatched entries) and exit")
		sched      = flag.String("schedule", "cost", "cell claim order: cost (longest predicted first) or fifo")
		worker     = flag.String("worker", "", "serve sweep cells to coordinators on this address (e.g. :7070); grid and output flags are ignored")
		workers    = flag.String("workers", "", "worker addresses to farm cells to instead of executing in-process: a comma-separated list, or @file with one address per line ('#' comments)")
		register   = flag.String("register", "", "register with a sweep daemon's worker registry at this address (see autofl-sweepd -registry) and serve its cells; re-dials with backoff on disconnect")
		name       = flag.String("name", "", "worker label advertised to the daemon's registry (with -register; default: the connection's remote address)")
		server     = flag.String("server", "", "submit the grid to a sweep daemon at this base URL (e.g. http://host:7170) instead of executing locally")
		cellTO     = flag.Duration("cell-timeout", 0, "with -workers: bound one cell's remote execution; a worker holding a cell past it is evicted and the cell re-queued (0 = no bound)")
		budget     = flag.Int("retry-budget", 0, "with -workers: re-queues a faulted cell may consume before being quarantined with a per-cell error (0 = default 3, negative = none)")
	)
	flag.Parse()

	if *list {
		listAxes()
		return
	}
	modes := 0
	for _, m := range []string{*worker, *register, *server} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 || (modes == 1 && *workers != "") {
		fatalf("-worker, -register, and -server are mutually exclusive (and none mixes with -workers)")
	}
	// A flag that tunes a mode the run is not in would be silently
	// ignored; refuse it instead.
	flag.Visit(func(f *flag.Flag) {
		switch {
		case (f.Name == "cell-timeout" || f.Name == "retry-budget") && *workers == "":
			fatalf("-%s applies only with -workers", f.Name)
		case f.Name == "name" && *register == "":
			fatalf("-name applies only with -register")
		}
	})
	if *worker != "" {
		runWorker(*worker, *parallel)
		return
	}
	if *register != "" {
		runRegisterWorker(*register, *name, *parallel)
		return
	}
	if *cacheGC {
		if *cacheDir == "" {
			fatalf("-cache-gc requires -cache-dir")
		}
		kept, dropped, err := cache.GCDir(*cacheDir)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "autofl-sweep: cache gc: kept %d entries, dropped %d lines\n", kept, dropped)
		return
	}
	if *format != "json" && *format != "csv" {
		fatalf("unknown -format %q (want json or csv)", *format)
	}
	if *sched != "cost" && *sched != "fifo" {
		fatalf("unknown -schedule %q (want cost or fifo)", *sched)
	}

	full := autofl.SweepGrid(*seed, *replicates)
	grid := sweep.Grid{Seed: *seed, Replicates: *replicates}
	grid.Workloads = pickAxis("workloads", *workloads, full.Workloads)
	grid.Settings = pickAxis("settings", *settings, full.Settings)
	grid.Data = pickAxis("data", *dataAxis, full.Data)
	grid.Envs = pickAxis("envs", *envs, full.Envs)
	grid.Policies = pickAxis("policies", *policies, full.Policies, batteryPolicies...)
	if *asyncModes != "" {
		grid.Modes = pickAxis("async-modes", *asyncModes, names(autofl.AggregationModes()))
	}
	if *alphas != "" {
		if *asyncModes == "" {
			fatalf("-alphas requires -async-modes (staleness weighting needs an asynchronous regime)")
		}
		grid.Alphas = pickFloatAxis("alphas", *alphas)
	}
	if *devicesAx != "" {
		grid.Devices = pickIntAxis("devices", *devicesAx)
	}
	if *samplesAx != "" {
		if *devicesAx == "" {
			fatalf("-samples requires -devices (a cohort needs a population to sample from)")
		}
		grid.Samples = pickIntAxis("samples", *samplesAx)
	}
	if *batteries != "" {
		grid.Batteries = pickAxis("battery-profiles", *batteries, names(autofl.BatteryProfiles()))
	}

	// Open the output before running so a bad path fails fast, not
	// after a long sweep.
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The first signal cancels ctx; in-flight cells still run to
	// completion. Restoring the default handler then lets a second
	// Ctrl-C force-quit instead of being swallowed.
	go func() {
		<-ctx.Done()
		stop()
	}()

	if *server != "" {
		if *cacheDir != "" {
			fatalf("-cache-dir is the daemon's concern in -server mode (see autofl-sweepd -cache-dir)")
		}
		runClient(ctx, *server, grid, *rounds, *format, w, *progress)
		return
	}

	runOpts := autofl.SweepOptions{
		MaxRounds:    *rounds,
		CostSchedule: *sched == "cost",
	}
	runOpts.Parallel = *parallel
	if *workers != "" {
		addrs, err := dist.ParseWorkerList(*workers)
		if err != nil {
			fatalf("%v", err)
		}
		if len(addrs) == 0 {
			fatalf("-workers selected no addresses")
		}
		runOpts.Workers = addrs
		runOpts.CellTimeout = *cellTO
		runOpts.RetryBudget = *budget
	}
	if *progress {
		runOpts.OnProgress = func(p sweep.Progress) {
			status := "ok"
			if p.Result.Err != "" {
				status = "ERR " + p.Result.Err
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%s)\n",
				p.Done, p.Total, p.Result.Cell.Key(), status)
		}
	}
	if *cacheDir != "" {
		c, cerr := cache.Open(*cacheDir, autofl.SweepSignature(grid, *rounds))
		if cerr != nil {
			fatalf("%v", cerr)
		}
		if !*resume {
			if cerr := c.Invalidate(); cerr != nil {
				fatalf("%v", cerr)
			}
		}
		runOpts.Cache = c
	}
	// Closed explicitly, not deferred: the error paths below exit via
	// os.Exit, and a swallowed append error (e.g. disk full) must still
	// reach the user — it means resume will re-execute those cells.
	closeCache := func() {
		if runOpts.Cache == nil {
			return
		}
		if cerr := runOpts.Cache.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "autofl-sweep: cache: %v\n", cerr)
		}
		runOpts.Cache = nil
	}

	start := time.Now()
	runOpts.Audit = &dist.Audit{}
	store, err := autofl.RunSweepWith(ctx, grid, runOpts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "autofl-sweep: interrupted after %d of %d cells: %v\n",
			store.Len(), grid.Size(), err)
	}
	// The final stats line is unconditional: warm runs (how much the
	// cache saved) and distributed runs (who executed what) are
	// auditable at a glance without re-running under -progress.
	printStats(store.Len(), start, runOpts.Audit)

	var werr error
	if *format == "csv" {
		werr = store.WriteCSV(w)
	} else {
		werr = store.WriteJSON(w)
	}
	closeCache()
	if werr != nil {
		fatalf("writing %s: %v", *format, werr)
	}
	if err != nil {
		os.Exit(1)
	}
}

// runWorker turns the process into a cell server: it executes jobs
// from coordinating autofl-sweep processes until interrupted, then
// shuts down gracefully (in-flight coordinators see a closed
// connection and re-queue). Traced jobs — sent by cache-backed
// coordinators — run through the traced runner so remote results can
// serve shorter horizons later.
func runWorker(addr string, parallel int) {
	w, err := dist.NewWorker(addr, parallel, autofl.SweepRunners)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "autofl-sweep: worker listening on %s\n", w.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // a second signal force-quits instead of being swallowed
		w.Close()
	}()
	if err := w.Serve(); err != nil && !errors.Is(err, dist.ErrWorkerClosed) {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "autofl-sweep: worker served %d cells\n", w.Served())
}

// runRegisterWorker turns the process into a register-mode cell
// server: it dials the daemon's worker registry and serves its cells,
// re-dialing with backoff whenever the connection drops — joining a
// running sweep picks up its queued cells — until interrupted.
func runRegisterWorker(addr, name string, parallel int) {
	w, err := dist.NewDialWorker(name, parallel, autofl.SweepRunners)
	if err != nil {
		fatalf("%v", err)
	}
	label := name
	if label == "" {
		label = "worker"
	}
	fmt.Fprintf(os.Stderr, "autofl-sweep: %s registering with %s\n", label, addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // a second signal force-quits instead of being swallowed
		w.Close()
	}()
	err = w.Register(ctx, addr, dist.RegisterOptions{
		OnState: func(state string, serr error) {
			if state == "backoff" {
				fmt.Fprintf(os.Stderr, "autofl-sweep: %s: %v (re-dialing)\n", label, serr)
			}
		},
	})
	if err != nil && !errors.Is(err, dist.ErrWorkerClosed) && !errors.Is(err, context.Canceled) {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "autofl-sweep: worker served %d cells\n", w.Served())
}

// runClient submits the grid to a sweep daemon, polls its progress,
// and writes the fetched result — byte-identical to a local run of the
// same grid, whoever executed the cells. Interrupting the wait cancels
// the job server-side before exiting.
func runClient(ctx context.Context, baseURL string, grid sweep.Grid, rounds int, format string, w io.Writer, progress bool) {
	client := &svc.Client{BaseURL: baseURL}
	start := time.Now()
	st, err := client.Submit(ctx, svc.JobSpec{Grid: grid, Rounds: rounds})
	if err != nil {
		fatalf("submit: %v", err)
	}
	fmt.Fprintf(os.Stderr, "autofl-sweep: submitted %s (%d cells) to %s\n", st.ID, st.Total, baseURL)

	var onUpdate func(svc.JobStatus)
	if progress {
		onUpdate = func(s svc.JobStatus) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s\n", s.Done, s.Total, s.ID, s.State)
		}
	}
	final, err := client.Wait(ctx, st.ID, 500*time.Millisecond, onUpdate)
	if err != nil {
		if ctx.Err() != nil {
			// The user interrupted the wait; stop the job rather than
			// leaving it running unattended.
			cancelCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, cerr := client.Cancel(cancelCtx, st.ID); cerr != nil {
				fatalf("interrupted; cancel failed: %v", cerr)
			}
			fatalf("interrupted; canceled %s", st.ID)
		}
		fatalf("waiting for %s: %v", st.ID, err)
	}
	// The client-side stats line is the local coordinator's, fed from
	// the daemon's status instead of local handles.
	printStats(final.Done, start, &final.Audit)
	if final.State != svc.StateDone {
		fatalf("job %s %s: %s", final.ID, final.State, final.Error)
	}

	raw, err := client.Result(ctx, st.ID, format)
	if err != nil {
		fatalf("fetching result: %v", err)
	}
	if _, err := w.Write(raw); err != nil {
		fatalf("writing %s: %v", format, err)
	}
}

// printStats prints a run's final stats line to stderr: cells, wall
// clock since start, and the audit's tail.
func printStats(cells int, start time.Time, audit *dist.Audit) {
	fmt.Fprintf(os.Stderr, "autofl-sweep: %d cells in %s%s\n", cells, time.Since(start).Round(time.Millisecond), audit.String())
}

// pickAxis resolves a comma-separated flag against the axis's values:
// "all" selects every one of all, and extra values are valid only when
// named.
func pickAxis(name, arg string, all []string, extra ...string) []string {
	if arg == "all" || arg == "" {
		return all
	}
	valid := map[string]bool{}
	for _, v := range slices.Concat(all, extra) {
		valid[v] = true
	}
	var out []string
	seen := map[string]bool{}
	for _, v := range strings.Split(arg, ",") {
		v = strings.TrimSpace(v)
		if v == "" || seen[v] {
			// Duplicate values would repeat cell keys (and so seeds),
			// silently inflating replicate counts.
			continue
		}
		if !valid[v] {
			fatalf("unknown %s value %q (see -list)", name, v)
		}
		seen[v] = true
		out = append(out, v)
	}
	if len(out) == 0 {
		fatalf("-%s selected no values", name)
	}
	return out
}

// pickFloatAxis parses a comma-separated flag of float values, keeping
// the original spellings as axis values (the cell identity is the
// string, so "0.5" and ".5" are distinct cells; pick one spelling).
func pickFloatAxis(name, arg string) []string {
	var out []string
	seen := map[string]bool{}
	for _, v := range strings.Split(arg, ",") {
		v = strings.TrimSpace(v)
		if v == "" || seen[v] {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			fatalf("bad %s value %q (want a non-negative number)", name, v)
		}
		seen[v] = true
		out = append(out, v)
	}
	if len(out) == 0 {
		fatalf("-%s selected no values", name)
	}
	return out
}

// pickIntAxis parses a comma-separated flag of positive integers,
// keeping the original spellings as axis values.
func pickIntAxis(name, arg string) []string {
	var out []string
	seen := map[string]bool{}
	for _, v := range strings.Split(arg, ",") {
		v = strings.TrimSpace(v)
		if v == "" || seen[v] {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			fatalf("bad %s value %q (want a positive integer)", name, v)
		}
		seen[v] = true
		out = append(out, v)
	}
	if len(out) == 0 {
		fatalf("-%s selected no values", name)
	}
	return out
}

func listAxes() {
	g := autofl.SweepGrid(0, 1)
	axes := []struct {
		name string
		vals []string
	}{
		{"workloads", g.Workloads},
		{"settings", g.Settings},
		{"data", g.Data},
		{"envs", g.Envs},
		{"policies", g.Policies},
		{"policies (not in 'all')", batteryPolicies},
		{"async-modes", names(autofl.AggregationModes())},
		{"battery-profiles", names(autofl.BatteryProfiles())},
	}
	for _, a := range axes {
		fmt.Printf("%s: %s\n", a.name, strings.Join(a.vals, ", "))
	}
}

// batteryPolicies are the battery-aware baselines -policies accepts
// beyond the paper's eight.
var batteryPolicies = names([]autofl.Policy{autofl.PolicyBatteryWeighted, autofl.PolicyAllAvailable})

// names lists the string values of an axis enumeration.
func names[T ~string](vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(v)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "autofl-sweep: "+format+"\n", args...)
	os.Exit(1)
}
