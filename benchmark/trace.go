package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"commoverlap/internal/trace"
)

// maxSpans bounds the spans one traced phase keeps: the serve workloads run
// tens of thousands of jobs, and a sample of them is enough to read the
// trace. Spans past the cap are counted as dropped.
const maxSpans = 40000

// tracer keeps the spans of one traced measurement in memory, around the
// benchmark's calls into each layer. Spans of one cell or job share a group.
// A nil *tracer records nothing. It is safe for concurrent use.
type tracer struct {
	workload string
	t0       time.Time

	mu       sync.Mutex
	next     int64
	spans    []span
	instants []instant
	dropped  int
}

type span struct {
	id, parent int64
	name       string
	group      string
	tid        int
	start, end time.Time
}

type instant struct {
	name, group string
	tid         int
	at          time.Time
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// id reserves a span id, so that children recorded first can name their
// parent. It returns 0 on a nil tracer.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) span(id, parent int64, name, group string, tid int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans && parent != 0 { // the root span is always kept
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{id, parent, name, group, tid, start, end})
}

func (t *tracer) instant(name, group string, tid int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.instants) >= maxSpans {
		t.dropped++
		return
	}
	t.instants = append(t.instants, instant{name, group, tid, at})
}

// chromeEvents renders the spans as async begin/end pairs (one id per span,
// wall-clock microseconds since the tracer started) and the instants as
// thread-scoped instant events.
func (t *tracer) chromeEvents() []trace.ChromeEvent {
	us := func(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }
	out := make([]trace.ChromeEvent, 0, 2*len(t.spans)+len(t.instants)+1)
	for _, s := range t.spans {
		out = append(out,
			trace.ChromeEvent{Name: s.name, Cat: t.workload, Ph: "b", Ts: us(s.start), Pid: 1, Tid: s.tid, ID: s.id,
				Args: map[string]any{"parent": s.parent, "group": s.group}},
			trace.ChromeEvent{Name: s.name, Cat: t.workload, Ph: "e", Ts: us(s.end), Pid: 1, Tid: s.tid, ID: s.id})
	}
	for _, in := range t.instants {
		out = append(out, trace.ChromeEvent{Name: in.name, Cat: t.workload, Ph: "i", Ts: us(in.at), Pid: 1, Tid: in.tid,
			Scope: "t", Args: map[string]any{"group": in.group}})
	}
	return append(out, trace.ChromeEvent{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "benchmark " + t.workload}})
}

// write saves the Chrome trace to path and validates the file as written.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.WriteChromeTrace(f, t.chromeEvents())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.ValidateChromeTrace(f); err != nil {
		return fmt.Errorf("validate %s: %w", path, err)
	}
	return nil
}

// selfRow aggregates the spans of one name: self time is each span's
// duration minus the part of it its child spans cover.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) selfTimes() []selfRow {
	children := make(map[int64][]int)
	for i, s := range t.spans {
		children[s.parent] = append(children[s.parent], i)
	}
	rows := make(map[string]*selfRow)
	var order []string
	for _, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &selfRow{name: s.name}
			rows[s.name] = r
			order = append(order, s.name)
		}
		var kids [][2]time.Time
		for _, ci := range children[s.id] {
			c := t.spans[ci]
			lo, hi := c.start, c.end
			if lo.Before(s.start) {
				lo = s.start
			}
			if hi.After(s.end) {
				hi = s.end
			}
			if hi.After(lo) {
				kids = append(kids, [2]time.Time{lo, hi})
			}
		}
		d := s.end.Sub(s.start)
		r.count++
		r.total += d
		r.self += d - unionLength(kids)
	}
	out := make([]selfRow, 0, len(order))
	for _, name := range order {
		out = append(out, *rows[name])
	}
	return out
}

func unionLength(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case !x[0].After(cur[1]):
			if x[1].After(cur[1]) {
				cur[1] = x[1]
			}
		default:
			total += cur[1].Sub(cur[0])
			cur = x
		}
	}
	if len(iv) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

// measureTraced runs one traced measurement phase: spans, a CPU profile and
// runtime/metrics deltas around it. It returns the per-layer metrics.
func measureTraced(name string, o options, measure measureFunc, log io.Writer) (map[string]float64, *sample, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, nil, err
	}
	profPath := filepath.Join(o.traceDir, name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer(name)
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	s, err := measure(o.budget()/2, tr)
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("write %s: %w", profPath, cerr)
	}
	if err != nil {
		return nil, nil, err
	}
	layer := make(map[string]float64)
	for k, v := range s.layer {
		layer[k] = v
	}
	runtimeDeltas(rt0, rt1, layer)
	shares, err := selfShares(profPath)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range shares {
		layer["host.self_pct."+k] = v
	}
	tracePath := filepath.Join(o.traceDir, name+".trace.json")
	if err := tr.write(tracePath); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(log, "  trace %s (%d spans, %d dropped), profile %s\n", tracePath, len(tr.spans), tr.dropped, profPath)
	fmt.Fprintf(log, "  %-14s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, r := range tr.selfTimes() {
		fmt.Fprintf(log, "  %-14s %8d %12.3f %12.3f\n", r.name, r.count, ms(r.total), ms(r.self))
	}
	return layer, s, nil
}

// runtimeNames are the runtime/metrics the traced phase reads before and
// after, in the order runtimeDeltas indexes them.
var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func runtimeDeltas(a, b []metrics.Sample, out map[string]float64) {
	val := func(s []metrics.Sample, i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	d := func(i int) float64 { return val(b, i) - val(a, i) }
	out["go.gc_cycles"] = d(0)
	if cpu := d(2); cpu > 0 {
		out["go.gc_cpu_frac"] = d(1) / cpu
	}
	out["go.alloc_mb"] = d(3) / (1 << 20)
	out["go.allocs"] = d(4)
	if a[5].Value.Kind() == metrics.KindFloat64Histogram && b[5].Value.Kind() == metrics.KindFloat64Histogram {
		out["go.sched_latency_p90_us"] = 1e6 * histQuantile(a[5].Value.Float64Histogram(), b[5].Value.Float64Histogram(), 0.9)
	}
	out["go.heap_live_mb"] = val(b, 6) / (1 << 20)
}

// histQuantile is the q-quantile of the observations histogram b gained
// over a, read as the upper edge of the bucket that holds it.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) >= q*float64(total) {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// selfShares attributes a CPU profile's self (flat) time to the stack's
// layers with the pprof tool that ships with Go, in percent of all samples.
func selfShares(profile string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, goBin, "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	return parseTop(string(out)), nil
}

// parseTop sums the flat% column of `pprof -top` rows by layer.
func parseTop(out string) map[string]float64 {
	shares := make(map[string]float64)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[layerOf(f[5])] += pct
	}
	return shares
}

// layerOf maps a profiled function to the layer its package belongs to.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime" // assembly routines such as aeshashbody carry no package
	}
	pkg := fn[:slash+1+dot]
	if p, ok := strings.CutPrefix(pkg, "commoverlap/internal/"); ok {
		switch p {
		case "sim", "simnet", "mpi", "core", "workload", "tune", "cache", "serve":
			return p
		case "mat", "mesh":
			return "core"
		case "runner":
			return "tune"
		case "progress":
			return "mpi"
		}
		return "other"
	}
	switch {
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "encoding/json" || pkg == "bufio" ||
		pkg == "internal/poll" || pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "net_http_json"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || pkg == "sync" ||
		strings.HasPrefix(pkg, "sync/") || strings.HasPrefix(pkg, "internal/"):
		return "runtime"
	}
	return "other"
}
