package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autofl"
	"autofl/internal/sweep"
	"autofl/internal/sweep/dist"
	"autofl/internal/sweep/svc"
)

// The sweep-plane workloads: an in-process daemon (svc with a
// Registry, two dial-in dist workers on loopback each running one cell
// at a time, a shared on-disk cache) and one closed-loop client
// submitting jobs over HTTP.
const (
	sweepWorkers = 2
	// coldRounds is the horizon of cold jobs, warmRounds that of warm
	// jobs, which the cache serves from the cold entries' prefixes.
	coldRounds = 1000
	warmRounds = 300
	// Status polls run far more often than the jobs they wait for end:
	// cold jobs take about half a second, warm ones tens of ms.
	coldPoll = 5 * time.Millisecond
	warmPoll = time.Millisecond
	// heapProbeJobs is the timed job after which the live heap is read.
	// The daemon keeps every finished job, so a probe at the end of the
	// phase would grow with the number of jobs a run gets through.
	heapProbeJobs = 16
)

// sweepGrid is a job's grid: 3 workloads x S3 x {iid, noniid50} x
// {field, interference} x {AutoFL, FedAvg-Random} x 2 replicates = 48
// cells on the paper's 200-device fleet.
func sweepGrid(seed uint64) sweep.Grid {
	return sweep.Grid{
		Workloads:  []string{string(autofl.CNNMNIST), string(autofl.LSTMShakespeare), string(autofl.MobileNetImageNet)},
		Settings:   []string{string(autofl.S3)},
		Data:       []string{string(autofl.IdealIID), string(autofl.NonIID50)},
		Envs:       []string{string(autofl.EnvField), string(autofl.EnvInterference)},
		Policies:   []string{string(autofl.PolicyAutoFL), string(autofl.PolicyRandom)},
		Replicates: 2,
		Seed:       seed,
	}
}

// cellTracer wraps the runners the workers execute cells with, so a
// traced run records a span per cell under the job in flight. Cells run
// on the workers' goroutines; the fields are atomic for that reason.
type cellTracer struct {
	tr  atomic.Pointer[tracer] // nil while untraced
	job atomic.Int32           // span of the job in flight
	op  atomic.Int64
}

func (c *cellTracer) runners(rounds int, traced bool) sweep.Runner {
	run := autofl.SweepRunners(rounds, traced)
	return func(ctx context.Context, cell sweep.Cell, seed uint64) (sweep.Outcome, error) {
		tr := c.tr.Load()
		i := tr.begin("cell."+cell.Policy, c.op.Load(), c.job.Load())
		o, err := run(ctx, cell, seed)
		tr.end(i, int64(o.Rounds))
		return o, err
	}
}

// daemon is the in-process sweep plane.
type daemon struct {
	reg       *svc.Registry
	workers   []*dist.Worker
	stopReg   context.CancelFunc
	registers sync.WaitGroup
	service   *svc.Service
	srv       *http.Server
	serving   sync.WaitGroup
	transport *http.Transport
	client    *svc.Client
}

func startDaemon(cacheDir string, runners dist.RunnerFor) (*daemon, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{reg: svc.NewRegistry(), stopReg: cancel, transport: &http.Transport{}}
	fail := func(err error) (*daemon, error) {
		d.close()
		return nil, err
	}
	regAddr, err := d.reg.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	for i := range sweepWorkers {
		w, err := dist.NewDialWorker(fmt.Sprintf("w%d", i+1), 1, runners)
		if err != nil {
			return fail(err)
		}
		d.workers = append(d.workers, w)
		d.registers.Add(1)
		go func() {
			defer d.registers.Done()
			w.Register(ctx, regAddr, dist.RegisterOptions{MinBackoff: 5 * time.Millisecond})
		}()
	}
	for wait := time.Now(); d.reg.Len() < sweepWorkers; time.Sleep(time.Millisecond) {
		if time.Since(wait) > 10*time.Second {
			return fail(fmt.Errorf("workers never registered (have %d)", d.reg.Len()))
		}
	}
	if d.service, err = svc.New(svc.Config{Runners: runners, Registry: d.reg, CacheDir: cacheDir}); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	d.srv = &http.Server{Handler: d.service.Handler()}
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		d.srv.Serve(ln)
	}()
	d.client = &svc.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: d.transport}}
	return d, nil
}

// close stops the daemon and waits for every goroutine it started.
func (d *daemon) close() {
	if d.srv != nil {
		d.srv.Close()
		d.serving.Wait()
	}
	if d.service != nil {
		d.service.Close()
	}
	for _, w := range d.workers {
		w.Close()
	}
	d.stopReg()
	d.registers.Wait()
	d.reg.Close()
	d.transport.CloseIdleConnections()
}

// jobRun is one job as the client saw it.
type jobRun struct {
	st   svc.JobStatus
	body []byte
	wall time.Duration
}

// runJob submits a job, polls its status until it is terminal, and
// fetches its JSON result, recording a span around each call when tr is
// set. The cell tracer, when given, learns the job's span first.
func (d *daemon) runJob(ctx context.Context, spec svc.JobSpec, poll time.Duration, tr *tracer, cells *cellTracer, op int64) (jobRun, error) {
	var r jobRun
	start := time.Now()
	root := tr.begin("job", op, -1)
	if cells != nil {
		cells.op.Store(op)
		cells.job.Store(root)
	}
	i := tr.begin("svc.submit", op, root)
	st, err := d.client.Submit(ctx, spec)
	tr.end(i, 0)
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	for !svc.Terminal(st.State) {
		time.Sleep(poll)
		i := tr.begin("svc.status", op, root)
		st, err = d.client.Status(ctx, st.ID)
		tr.end(i, 0)
		if err != nil {
			return r, fmt.Errorf("status: %w", err)
		}
	}
	r.st = st
	if st.State != svc.StateDone {
		tr.end(root, 0)
		return r, nil
	}
	i = tr.begin("svc.fetch", op, root)
	r.body, err = d.client.Result(ctx, st.ID, "json")
	tr.end(i, int64(len(r.body)))
	tr.end(root, 0)
	r.wall = time.Since(start)
	if err != nil {
		return r, fmt.Errorf("result: %w", err)
	}
	return r, nil
}

// checkJob enforces the per-job invariants: done with no failed cells,
// cold jobs executing every cell, warm jobs serving every cell from the
// cache.
func checkJob(r jobRun, warm bool) error {
	st := r.st
	switch {
	case st.State != svc.StateDone || st.FailedCells != 0:
		return fmt.Errorf("job %s ended %s with %d failed cells: %s", st.ID, st.State, st.FailedCells, st.Error)
	case st.Done != st.Total || len(r.body) == 0:
		return fmt.Errorf("job %s delivered %d of %d cells, %d result bytes", st.ID, st.Done, st.Total, len(r.body))
	case !warm && (st.CacheHits != 0 || st.CacheMisses != st.Total):
		return fmt.Errorf("cold job %s: %d hits, %d misses of %d cells", st.ID, st.CacheHits, st.CacheMisses, st.Total)
	case warm && (st.CacheMisses != 0 || st.CacheHits != st.Total):
		// Prefix hits are the hits served by replaying a longer entry.
		return fmt.Errorf("warm job %s: %d misses, %d hits of %d cells", st.ID, st.CacheMisses, st.CacheHits, st.Total)
	}
	return nil
}

// sweepDigest summarizes a job result's simulated statistics: cells,
// rounds, mean final accuracy, virtual seconds and energy summed over
// the cells, and a hash of the result bytes. Like the pop1m digest it
// must not move under a change that only makes the program faster.
func sweepDigest(body []byte) (string, error) {
	var res struct{ Results []sweep.Result }
	if err := json.Unmarshal(body, &res); err != nil {
		return "", fmt.Errorf("decoding result: %w", err)
	}
	var rounds int
	var acc, sec, energy float64
	for _, r := range res.Results {
		rounds += r.Outcome.Rounds
		acc += r.Outcome.FinalAccuracy
		sec += r.Outcome.TimeToTargetSec
		energy += r.Outcome.EnergyToTargetJ
	}
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("cells=%d rounds=%d accuracy_mean=%.6f virtual_s=%.3f energy_j=%.3f result_hash=%016x",
		len(res.Results), rounds, acc/float64(max(len(res.Results), 1)), sec, energy, h.Sum64()), nil
}

// checkSerial compares a daemon result with a local serial RunSweep of
// the same grid and horizon.
func checkSerial(ctx context.Context, g sweep.Grid, rounds int, got []byte) error {
	store, err := autofl.RunSweep(ctx, g, rounds, sweep.Options{Parallel: 1})
	if err != nil {
		return fmt.Errorf("serial sweep: %w", err)
	}
	var want bytes.Buffer
	if err := store.WriteJSON(&want); err != nil {
		return err
	}
	if !bytes.Equal(got, want.Bytes()) {
		return fmt.Errorf("daemon result for grid seed %d at %d rounds differs from a local serial run (%d vs %d bytes)",
			g.Seed, rounds, len(got), want.Len())
	}
	return nil
}

func runSweep(warm bool, p params) (*outcome, error) {
	out := newOutcome()
	ctx := context.Background()
	name := "sweep-cold"
	if warm {
		name = "sweep-warm"
	}
	seed := splitmix64(p.seed)
	setupGrid := sweepGrid(seed)
	cold := svc.JobSpec{Grid: setupGrid, Rounds: coldRounds}
	cells := &cellTracer{}
	cells.job.Store(-1)

	var (
		d      *daemon
		setups []float64
		digest string
		err    error
	)
	for r := range setupReps {
		if d != nil {
			d.close()
		}
		runtime.GC()
		start := time.Now()
		if d, err = startDaemon(filepath.Join(p.dir, fmt.Sprintf("cache-%d", r)), cells.runners); err != nil {
			return nil, err
		}
		res, err := d.runJob(ctx, cold, coldPoll, nil, nil, -1)
		if err != nil {
			d.close()
			return nil, err
		}
		if err := checkJob(res, false); err != nil {
			out.fail("set-up: %v", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if digest, err = sweepDigest(res.body); err != nil {
			out.fail("set-up: %v", err)
		}
	}

	// Cold jobs each take a fresh grid seed; warm jobs replay the set-up
	// grid at the shorter horizon.
	nextSpec := func(i int) svc.JobSpec {
		if warm {
			return svc.JobSpec{Grid: setupGrid, Rounds: warmRounds}
		}
		return svc.JobSpec{Grid: sweepGrid(splitmix64(seed + uint64(i) + 1)), Rounds: coldRounds}
	}
	poll := coldPoll
	if warm {
		poll = warmPoll
	}

	// A traced run times an untraced third of the phase first, for the
	// tracing overhead, then traces the rest.
	total := time.Duration(p.seconds * float64(time.Second))
	untracedFor := total
	var tr *tracer
	if p.trace {
		untracedFor = total / 3
		tr = newTracer(1 << 16)
	}
	var (
		untraced, traced []float64
		statuses         []svc.JobStatus
		last             jobRun
		lastSpec         svc.JobSpec
		cellsServed      int
		heap             float64
	)
	start := time.Now()
	for i := 0; time.Since(start) < total; i++ {
		jtr := (*tracer)(nil)
		if time.Since(start) >= untracedFor {
			jtr = tr
			cells.tr.Store(tr)
		}
		spec := nextSpec(i)
		out.attempted++
		r, err := d.runJob(ctx, spec, poll, jtr, cells, int64(i))
		if err != nil {
			out.fail("job %d: %v", i, err)
			break
		}
		if err := checkJob(r, warm); err != nil {
			out.fail("%v", err)
			continue
		}
		ms := float64(r.wall) / 1e6
		if jtr != nil {
			traced = append(traced, ms)
			statuses = append(statuses, r.st)
		} else {
			untraced = append(untraced, ms)
		}
		cellsServed += r.st.Total
		last, lastSpec = r, spec
		if i+1 == heapProbeJobs {
			heap = heapMiB()
		}
	}
	wall := time.Since(start).Seconds()
	cells.tr.Store(nil)
	if heap == 0 {
		heap = heapMiB()
	}
	runtime.KeepAlive(d)
	d.close()

	out.attempted++
	if last.body == nil {
		out.fail("no job completed in the timed phase")
	} else if err := checkSerial(ctx, lastSpec.Grid, lastSpec.Rounds, last.body); err != nil {
		out.fail("%v", err)
	}

	fmt.Printf("setup_s: %v\n", setups)
	fmt.Printf("digest of the set-up job: %s\n", digest)
	if !p.trace {
		jobs := summarize(untraced)
		fmt.Printf("job_ms: %v\n", jobs)
		fmt.Printf("cells_per_s: %.2f (%d cells over %.2f s)\n", float64(cellsServed)/wall, cellsServed, wall)
		out.set("setup_s", "s", median(setups))
		out.set("op_ms_p50", "ms", jobs.P50)
		out.set("work_per_s", "1/s", float64(cellsServed)/wall)
		out.set("heap_mib", "MiB", heap)
		return out, nil
	}
	if len(statuses) == 0 {
		return nil, errors.New("no traced job completed; raise -seconds")
	}
	if tr.dropped.Load() > 0 {
		return nil, fmt.Errorf("span buffer overflowed by %d spans", tr.dropped.Load())
	}
	spans := tr.recorded()
	tracedSum, untracedSum := summarize(traced), summarize(untraced)
	fmt.Printf("traced job_ms: %v; untraced job_ms: %v; tracing overhead %+.3f ms at p50\n",
		tracedSum, untracedSum, tracedSum.P50-untracedSum.P50)
	if err := writeSpans(spanPath(name), spans); err != nil {
		return nil, err
	}
	sweepLayers(out, spans, statuses)
	return out, nil
}

// sweepLayers derives the per-layer metrics of the traced jobs from
// their spans and final statuses. Counts are per job.
func sweepLayers(out *outcome, spans []span, statuses []svc.JobStatus) {
	jobs := float64(len(statuses))
	var queue, exec []float64
	var execNs float64
	var hits, prefix, misses, total, requeues int
	for _, st := range statuses {
		q, e := st.StartedAt.Sub(st.SubmittedAt), st.FinishedAt.Sub(*st.StartedAt)
		queue = append(queue, float64(q)/1e6)
		exec = append(exec, float64(e)/1e6)
		execNs += float64(e)
		hits += st.CacheHits
		prefix += st.CachePrefixHits
		misses += st.CacheMisses
		total += st.Total
		requeues += st.Requeues
	}
	var polls, fetched []float64
	var cellNs, cellCount float64
	perPolicy := map[string][2]float64{} // ns, rounds
	for _, s := range spans {
		switch s.Name {
		case "svc.status":
			polls = append(polls, 1)
		case "svc.fetch":
			fetched = append(fetched, float64(s.Work))
		case "cell." + string(autofl.PolicyAutoFL), "cell." + string(autofl.PolicyRandom):
			cellNs += float64(s.dur())
			cellCount++
			v := perPolicy[s.Name]
			perPolicy[s.Name] = [2]float64{v[0] + float64(s.dur()), v[1] + float64(s.Work)}
		}
	}
	perRound := func(name string) float64 {
		v := perPolicy[name]
		if v[1] == 0 {
			return 0
		}
		return v[0] / 1e6 / v[1]
	}
	selfs := selfTimes(spans)
	var clientSelf []float64
	for i, s := range spans {
		if s.Name == "job" {
			clientSelf = append(clientSelf, float64(selfs[i])/1e6)
		}
	}
	fmt.Printf("traced jobs: %d; client wait between calls per job: %v\n", len(statuses), summarize(clientSelf))
	out.set("svc.submit_ms", "ms", median(durationsMs(spans, "svc.submit")))
	out.set("svc.fetch_ms", "ms", median(durationsMs(spans, "svc.fetch")))
	out.set("svc.result_bytes", "B", median(fetched))
	out.set("svc.wait_polls", "count", float64(len(polls))/jobs)
	out.set("svc.queue_ms", "ms", median(queue))
	out.set("svc.exec_ms", "ms", median(exec))
	out.set("cell.ms_per_round.AutoFL", "ms", perRound("cell."+string(autofl.PolicyAutoFL)))
	out.set("cell.ms_per_round.FedAvg-Random", "ms", perRound("cell."+string(autofl.PolicyRandom)))
	out.set("dist.busy_frac", "frac", cellNs/(sweepWorkers*execNs))
	out.set("dist.cells_run", "count", cellCount/jobs)
	out.set("dist.duplicate_cells", "count", (cellCount-float64(misses))/jobs)
	out.set("dist.requeues", "count", float64(requeues)/jobs)
	out.set("cache.hits", "count", float64(hits)/jobs)
	out.set("cache.prefix_hits", "count", float64(prefix)/jobs)
	out.set("cache.misses", "count", float64(misses)/jobs)
	out.set("cache.hit_frac", "frac", float64(hits)/float64(max(total, 1)))
}
