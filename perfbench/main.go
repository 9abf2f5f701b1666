// Command perfbench is the repository's benchmark: it runs one workload
// through the public entry points (autofl.Open and Session.Step for the
// million-device engine, the svc HTTP client against an in-process
// sweep daemon for the sweep plane), checks that the outputs are
// correct, and prints its metrics. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with -trace 1 the run records spans around every call into
// a layer and the metrics are the per-layer ones. Run it from the
// repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload pop1m-sync --seed 1 --seconds 10 --trace 0
//
// Workloads: pop1m-sync, pop1m-async-battery, sweep-cold, sweep-warm
// (see README.md for why each exists and what each metric means).
// The exit code is 0 when every check passed, 1 when a check failed
// (the result line is still printed, with the failed ops counted), and
// 2 when the run could not be made at all.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// workDir holds what a run writes: sweep caches (removed at exit) and
// the span dumps of traced runs.
const workDir = ".bench_build"

// metricDef declares one reported metric. The tables below are the
// benchmark's contract with BENCHMARK.json (a test keeps them equal).
type metricDef struct{ name, unit string }

// endToEnd metrics, measured with tracing off, on every workload. An
// op is one Session.Step on the pop1m workloads and one job, submit to
// result bytes, on the sweep workloads; work is rounds and cells.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"work_per_s", "1/s"},
	{"heap_mib", "MiB"},
}

// perLayer metrics, from the traced run. A layer a workload does not
// reach reads 0 on it.
var perLayer = []metricDef{
	{"open.population_ms", "ms"},
	{"open.engine_ms", "ms"},
	{"policy.select_ms_p50", "ms"},
	{"engine.self_ms_p50", "ms"},
	{"engine.allocs_per_round", "count"},
	{"engine.gc_cycles", "count"},
	{"svc.submit_ms", "ms"},
	{"svc.fetch_ms", "ms"},
	{"svc.result_bytes", "B"},
	{"svc.wait_polls", "count"},
	{"svc.queue_ms", "ms"},
	{"svc.exec_ms", "ms"},
	{"cell.ms_per_round.AutoFL", "ms"},
	{"cell.ms_per_round.FedAvg-Random", "ms"},
	{"dist.busy_frac", "frac"},
	{"dist.cells_run", "count"},
	{"dist.duplicate_cells", "count"},
	{"dist.requeues", "count"},
	{"cache.hits", "count"},
	{"cache.prefix_hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_frac", "frac"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run reports: ops attempted and failed,
// and the metrics of its mode.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

// fail counts one op as failed and says why on standard error, for the
// first few failures.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// params are a run's command-line inputs.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // scratch directory of this run
}

var workloads = map[string]func(params) (*outcome, error){
	"pop1m-sync":          func(p params) (*outcome, error) { return runPop(popSync, p) },
	"pop1m-async-battery": func(p params) (*outcome, error) { return runPop(popAsyncBattery, p) },
	"sweep-cold":          func(p params) (*outcome, error) { return runSweep(false, p) },
	"sweep-warm":          func(p params) (*outcome, error) { return runSweep(true, p) },
}

func main() {
	name := flag.String("workload", "", "workload to run: pop1m-sync, pop1m-async-battery, sweep-cold, sweep-warm")
	seed := flag.Uint64("seed", 1, "workload seed; every scenario and grid seed derives from it")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (pop1m-sync, pop1m-async-battery, sweep-cold, sweep-warm), -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Println("host:", hostInfo())
	out, err := run(params{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir})
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch directory:", rmErr)
	}
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := complete(out, defs, *trace == 1); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if out.failed > 0 || out.attempted == 0 {
		os.Exit(1)
	}
}

// complete checks that the outcome carries exactly the declared metrics
// with their units. Per-layer metrics of layers the workload does not
// reach are filled with 0; a missing end-to-end metric is a bug.
func complete(out *outcome, defs []metricDef, zeroFill bool) error {
	for _, d := range defs {
		m, ok := out.metrics[d.name]
		switch {
		case !ok && zeroFill:
			out.set(d.name, d.unit, 0)
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	if len(out.metrics) != len(defs) {
		return fmt.Errorf("outcome has %d metrics, want the %d declared", len(out.metrics), len(defs))
	}
	return nil
}

// hostInfo names the hardware and toolchain a measurement belongs to.
func hostInfo() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// heapMiB forces a collection and reads the live heap. The caller keeps
// the workload's state reachable across the call. The second collection
// empties the sync.Pool victim caches, whose contents the first keeps.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// spanPath is where a traced run dumps its spans.
func spanPath(workload string) string { return filepath.Join(workDir, "spans-"+workload+".tsv") }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// splitmix64 derives a stream of independent seeds from one.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
