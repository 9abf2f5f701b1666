// Command autofl-sweepd is the sweep control plane: a long-running
// daemon that accepts experiment grids over an HTTP+JSON API, executes
// them on a registry of workers (or an in-process pool with -local),
// and shares one persistent result cache across every client — so
// overlapping grids from concurrent submissions execute each cell
// exactly once, and shorter-horizon requests are served from longer
// cached runs.
//
// Workers join the registry two ways. Register-mode workers dial in
// (autofl-sweep -register <this daemon's -registry address>) and
// re-dial with backoff when the connection drops; a worker that joins
// mid-sweep picks up queued cells, and a worker lost mid-grid has its
// in-flight cells re-queued to the survivors. Listen-mode workers
// (autofl-sweep -worker) are named with -workers — a comma-separated
// list or @file, one address per line with '#' comments — and the
// daemon maintains dial-out connections to them with the same backoff.
//
// The v1 API (see internal/sweep/svc for the envelope details):
//
//	POST   /v1/sweeps             submit {"grid": {...}, "rounds": N}
//	GET    /v1/sweeps             list jobs
//	GET    /v1/sweeps/{id}        status + live progress
//	GET    /v1/sweeps/{id}/result results (?format=csv for CSV)
//	DELETE /v1/sweeps/{id}        cancel
//	GET    /v1/workers            registered workers
//	GET    /v1/healthz            liveness (503 while draining)
//	GET    /v1/metrics            plain-text counters
//
// SIGINT/SIGTERM drains gracefully: intake stops with 503, running
// grids get -drain-timeout to finish before being canceled, and
// still-queued jobs stay open in the journal under -cache-dir, so the
// next daemon resumes them under their IDs. A second signal
// force-quits.
//
// Example:
//
//	autofl-sweepd -listen :7170 -registry :7171 -cache-dir svc.cache
//	autofl-sweep -register host:7171 -name rack1     # on each machine
//	autofl-sweep -server http://host:7170 -rounds 1000 -out grid.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autofl"
	"autofl/internal/sweep/dist"
	"autofl/internal/sweep/svc"
)

func main() {
	var (
		listen        = flag.String("listen", ":7170", "HTTP API listen address")
		registry      = flag.String("registry", ":7171", "worker registration listen address (not with -local)")
		workers       = flag.String("workers", "", "static listen-mode workers to dial out to: a comma-separated list, or @file with one address per line ('#' comments)")
		cacheDir      = flag.String("cache-dir", "", "shared result cache root (per-seed subdirectories; empty = no cache, no drain persistence)")
		maxConcurrent = flag.Int("max-concurrent", 1, "grids running at once (1 serializes overlapping submissions onto the cache)")
		queueLimit    = flag.Int("queue-limit", 64, "queued (not yet running) job bound; submissions past it get 429")
		local         = flag.Bool("local", false, "execute cells in-process instead of on workers")
		parallel      = flag.Int("parallel", 0, "in-process pool size with -local (0 = GOMAXPROCS)")
		drainTimeout  = flag.Duration("drain-timeout", time.Minute, "how long a drain lets running grids finish before canceling them")
		hbInterval    = flag.Duration("heartbeat-interval", 0, "worker-link heartbeat ping interval (0 = default 5s, negative = disabled)")
		hbTimeout     = flag.Duration("heartbeat-timeout", 0, "total worker silence tolerated before eviction (0 = 4x the interval)")
		cellTimeout   = flag.Duration("cell-timeout", 0, "bound one cell's remote execution; a worker holding a cell past it is evicted and the cell re-queued (0 = no bound)")
		retryBudget   = flag.Int("retry-budget", 0, "re-queues a faulted cell may consume before quarantine (0 = default 3, negative = none)")
	)
	flag.Parse()
	// A flag that tunes a mode the daemon is not in would be silently
	// ignored; refuse it instead.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "parallel":
			if !*local {
				fatalf("-parallel applies only with -local")
			}
		case "registry", "workers", "heartbeat-interval", "heartbeat-timeout", "cell-timeout", "retry-budget":
			if *local {
				fatalf("-%s does not apply with -local (cells run in-process)", f.Name)
			}
		}
	})

	cfg := svc.Config{
		Runners:       autofl.SweepRunners,
		LocalParallel: *parallel,
		CacheDir:      *cacheDir,
		QueueLimit:    *queueLimit,
		MaxConcurrent: *maxConcurrent,
		CellTimeout:   *cellTimeout,
		RetryBudget:   *retryBudget,
	}
	var reg *svc.Registry
	if !*local {
		reg = svc.NewRegistry()
		reg.Links = dist.LinkOptions{HeartbeatInterval: *hbInterval, HeartbeatTimeout: *hbTimeout}
		addr, err := reg.Listen(*registry)
		if err != nil {
			fatalf("registry: %v", err)
		}
		defer reg.Close()
		fmt.Fprintf(os.Stderr, "autofl-sweepd: worker registry on %s\n", addr)
		if *workers != "" {
			addrs, err := dist.ParseWorkerList(*workers)
			if err != nil {
				fatalf("%v", err)
			}
			for _, a := range addrs {
				reg.Maintain(a)
			}
			fmt.Fprintf(os.Stderr, "autofl-sweepd: maintaining %d static workers\n", len(addrs))
		}
		cfg.Registry = reg
	}

	service, err := svc.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if n := service.ResumedJobs(); n > 0 {
		fmt.Fprintf(os.Stderr, "autofl-sweepd: journal: recovered %d jobs the previous daemon left unfinished\n", n)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatalf("%v", err)
	}
	srv := &http.Server{Handler: service.Handler()}
	fmt.Fprintf(os.Stderr, "autofl-sweepd: serving v1 API on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fatalf("%v", err)
	case <-ctx.Done():
	}
	stop() // a second signal force-quits instead of being swallowed
	fmt.Fprintf(os.Stderr, "autofl-sweepd: draining (running grids get %s)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// The API stays up through the drain so clients can poll their
	// running jobs to completion; submissions are refused with 503.
	if err := service.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "autofl-sweepd: drain: %v\n", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "autofl-sweepd: http shutdown: %v\n", err)
	}
	if reg != nil {
		reg.Close()
	}
	fmt.Fprintln(os.Stderr, "autofl-sweepd: stopped")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "autofl-sweepd: "+format+"\n", args...)
	os.Exit(1)
}
