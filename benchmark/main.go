// Command benchmark times the commoverlap stack from outside, through each
// layer's public functions: the paper's SymmSquareCube tables on the
// simulator (paper-kernels), a cold quick-grid tuning search (tune-cold), and
// the HTTP tuning service under all-hit and mixed hit/miss traffic
// (serve-warm, serve-mixed). Every workload checks its own output.
//
// Run it from the repository root with run.sh (see README.md):
//
//	bash benchmark/run.sh --workload tune-cold --seed 1 --seconds 20 --trace 0
//
// Without --workload it runs all four. Each workload runs in a fresh child
// process (this binary, re-executed), so heap, cache.Shared() and peak RSS
// are per workload. The last stdout line of a single-workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// childEnv marks a re-executed child process that runs one workload.
const childEnv = "COMMOVERLAP_BENCHMARK_CHILD"

// defaultSeed is the workload seed when -seed is not given.
const defaultSeed = 1

// childTimeout bounds one workload's child process; a run must finish within
// three minutes.
const childTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceDir string
	size     string
	root     string
}

func (o options) smoke() bool { return o.size == "smoke" }

// budget is the measurement time of one phase.
func (o options) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default all)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement time per workload in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 prints the end-to-end metrics; 1 runs traced and prints the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes Chrome traces and CPU profiles")
	fs.StringVar(&o.size, "size", "full", "smoke (seconds-long check) or full")
	fs.StringVar(&o.root, "root", ".", "repository root, holding TUNING.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.validate(fs.NArg()); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if os.Getenv(childEnv) == "1" {
		return runChild(o, stdout, stderr)
	}
	return runParent(o, stdout, stderr)
}

func (o options) validate(extra int) error {
	switch {
	case extra > 0:
		return errors.New("unexpected arguments")
	case o.workload != "" && lookupWorkload(o.workload) == nil:
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	case o.seconds <= 0:
		return fmt.Errorf("-seconds %g: want > 0", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	case o.size != "smoke" && o.size != "full":
		return fmt.Errorf("-size %q: want smoke or full", o.size)
	}
	return nil
}

// runParent runs each selected workload in its own child process and
// forwards each child's result line to stdout.
func runParent(o options, stdout, stderr io.Writer) int {
	names := workloadNames()
	if o.workload != "" {
		names = []string{o.workload}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rc := 0
	for _, name := range names {
		line, err := runChildProcess(exe, o, name, stderr)
		if line != nil {
			fmt.Fprintf(stdout, "%s\n", line)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			rc = 1
		}
	}
	return rc
}

// runChildProcess re-executes this binary for one workload and returns its
// result line. It waits for the child to exit on every path.
func runChildProcess(exe string, o options, name string, stderr io.Writer) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-trace-dir", o.traceDir,
		"-size", o.size,
		"-root", o.root)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.SysProcAttr = childAttr()
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	line := bytes.TrimSpace(out.Bytes())
	line = line[bytes.LastIndexByte(line, '\n')+1:]
	var res result
	if json.Unmarshal(line, &res) != nil {
		if runErr == nil {
			runErr = errors.New("child printed no result")
		}
		return nil, runErr
	}
	if runErr == nil && !res.Correct {
		runErr = fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return line, runErr
}

// result is the JSON object a run prints as its last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a reported metric and its unit. The two tables below are
// the ones BENCHMARK.json lists; benchmark_test.go keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by --trace 0.
// ops are the workload's units of work: table cells for paper-kernels and
// tune-cold, jobs for the serve workloads. op_tail_ms is the tailQuantile
// of the op latencies.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// tailQuantile is p99, or with fewer than 1000 samples the highest
// percentile that still has ten samples beyond it (at least the median).
func tailQuantile(n int) float64 {
	return max(0.5, min(0.99, 1-10/float64(n)))
}

// perLayer are the single-layer metrics, printed by --trace 1. A workload
// that does not exercise a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.reservations", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.run_share", "ratio"},
	{"simnet.chunks", "count"},
	{"simnet.transfers", "count"},
	{"simnet.wire_bytes", "bytes"},
	{"mpi.world_setup_ms_p50", "ms"},
	{"mpi.msgs_eager", "count"},
	{"mpi.msgs_rndv", "count"},
	{"mpi.colls", "count"},
	{"runner.cpu_util", "ratio"},
	{"tune.cells_per_cpu_s", "1/s"},
	{"tune.tail_s", "s"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.coalesced", "count"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.stream_ms_p50", "ms"},
	{"serve.result_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.rejected", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.allocs", "count"},
	{"go.sched_latency_p90_us", "us"},
	{"go.heap_live_mb", "MB"},
	{"host.self_pct.sim", "%"},
	{"host.self_pct.simnet", "%"},
	{"host.self_pct.mpi", "%"},
	{"host.self_pct.core", "%"},
	{"host.self_pct.workload", "%"},
	{"host.self_pct.tune", "%"},
	{"host.self_pct.cache", "%"},
	{"host.self_pct.serve", "%"},
	{"host.self_pct.runtime", "%"},
	{"host.self_pct.net_http_json", "%"},
	{"host.self_pct.other", "%"},
	{"trace.overhead_pct", "%"},
}

// sample is what one measurement phase of a workload returns.
type sample struct {
	rate      float64   // ops per second
	lat       []float64 // per-op latency in ms, as the workload defines it
	attempted int       // ops run
	failed    int
	layer     map[string]float64 // per-layer values the workload itself measures
}

// measureFunc runs one measurement phase of about budget, recording spans
// into tr when it is non-nil.
type measureFunc func(budget time.Duration, tr *tracer) (*sample, error)

// workload prepares its inputs and state; the returned measureFunc is then
// timed. Setup runs setupReps times and only the last preparation is kept.
type workload struct {
	name string
	// procs, when non-zero, is the workload process's GOMAXPROCS.
	procs int
	setup func(o options) (measureFunc, error)
}

var workloads = []workload{
	// paper-kernels runs one simulation at a time. On one P the engine and
	// its process goroutines hand off on one thread; with a second, idle P
	// every handoff also wakes that P, which on a virtual machine made the
	// workload about 20% slower and doubled its run-to-run spread.
	{"paper-kernels", 1, setupPaper},
	{"tune-cold", 0, setupTune},
	{"serve-warm", 0, func(o options) (measureFunc, error) { return setupServe(o, false) }},
	{"serve-mixed", 0, func(o options) (measureFunc, error) { return setupServe(o, true) }},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setupReps is how often a run sets its workload up; setup_s is the median.
const setupReps = 5

// runChild runs one workload in this process and prints its result line.
func runChild(o options, stdout, stderr io.Writer) int {
	if o.workload == "" {
		fmt.Fprintln(stderr, "benchmark: a child process needs -workload")
		return 2
	}
	res, err := execute(*lookupWorkload(o.workload), o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func execute(w workload, o options, log io.Writer) (*result, error) {
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	var setups []float64
	var measure measureFunc
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		m, err := w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		measure = m
	}
	res := &result{Metrics: map[string]metric{}}
	add := func(s *sample) {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	fmt.Fprintf(log, "%s: seed %d, size %s, %gs measured, trace %d, %s/%s, GOMAXPROCS %d\n",
		w.name, o.seed, o.size, o.seconds, o.trace, runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
	if o.trace == 0 {
		s, err := measure(o.budget(), nil)
		if err != nil {
			return nil, err
		}
		add(s)
		set := func(name string, v float64, n int, note string) {
			res.Metrics[name] = metric{v, unitOf(endToEnd, name)}
			fmt.Fprintf(log, "  %-24s %14.6g %-6s n=%d %s\n", name, v, unitOf(endToEnd, name), n, note)
		}
		q := tailQuantile(len(s.lat))
		set("setup_s", median(setups), len(setups), "median")
		set("ops_per_s", s.rate, s.attempted, "")
		set("op_p50_ms", percentile(s.lat, 0.50), len(s.lat), "")
		set("op_tail_ms", percentile(s.lat, q), len(s.lat), fmt.Sprintf("p%.4g", 100*q))
		set("peak_rss_mb", peakRSSMB(), 1, "VmHWM")
	} else {
		// The untraced half gives the baseline for the tracing overhead; the
		// per-layer metrics all come from the traced half.
		base, err := measure(o.budget()/2, nil)
		if err != nil {
			return nil, err
		}
		add(base)
		layer, traced, err := measureTraced(w.name, o, measure, log)
		if err != nil {
			return nil, err
		}
		add(traced)
		if base.rate > 0 {
			layer["trace.overhead_pct"] = 100 * (base.rate - traced.rate) / base.rate
		}
		for _, d := range perLayer {
			v := layer[d.name]
			res.Metrics[d.name] = metric{v, d.unit}
			fmt.Fprintf(log, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(log, "  attempted %d, failed %d (fail ratio %.3g)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	return res, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// percentile is the nearest-rank q-quantile of xs (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*q)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mismatches counts failed output checks; only the first few are printed.
var mismatches atomic.Int64

func logMismatch(what, got, want string) {
	if mismatches.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "  MISMATCH %s:\n    got  %.300s\n    want %.300s\n", what, got, want)
	}
}
