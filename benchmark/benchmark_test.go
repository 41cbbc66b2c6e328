package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commoverlap/internal/bench"
	"commoverlap/internal/core"
)

var update = flag.Bool("update", false, "regenerate testdata/paper_kernels.golden from the current code")

// TestMain lets the test binary stand in for the benchmark binary when the
// smoke test's parent re-executes it as a workload child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeRunPrintsEveryMetric runs every workload at the smoke size,
// untraced and traced, and checks that each prints a correct result with
// exactly the metrics BENCHMARK.json names, in its units.
func TestSmokeRunPrintsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		args := []string{"-size", "smoke", "-seconds", "0.1", "-seed", "7",
			"-trace", fmt.Sprint(trace), "-trace-dir", dir, "-root", ".."}
		if rc := realMain(args, &stdout, &stderr); rc != 0 {
			t.Fatalf("trace %d: exit %d\n%s", trace, rc, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) != len(workloads) {
			t.Fatalf("trace %d: %d result lines, want %d:\n%s", trace, len(lines), len(workloads), stdout.String())
		}
		for i, line := range lines {
			name := workloads[i].name
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s: %v: %s", name, err, line)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %d: metric %s in %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m.Name, got.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(dir, name+".trace.json")); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestKernelMatchesBench pins the benchmark's own job construction to
// bench.Kernel, with and without the counting hooks, so the benchmark
// measures the same program the experiments run.
func TestKernelMatchesBench(t *testing.T) {
	c := paperCell{"pin", bench.System{Name: "small", N: 1200}, core.Optimized, 4, 2, 2}
	kr, err := bench.Kernel(c.v, c.sys.N, c.p, c.ndup, c.ppn)
	if err != nil {
		t.Fatal(err)
	}
	want := kernelOutcome{kr.Time, kr.GemmTime, kr.Volume, kr.WireUtil}
	for _, count := range []bool{false, true} {
		got, n, _, _, err := runKernel(c, count)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("count=%v: benchmark job %s, bench.Kernel %s", count, got, want)
		}
		if count && (n["sim.events"] == 0 || n["simnet.chunks"] == 0 || n["sim.reservations"] == 0) {
			t.Errorf("counts not collected: %v", n)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"commoverlap/internal/sim.(*Engine).Run":                          "sim",
		"commoverlap/internal/sim.eventLess":                              "sim",
		"commoverlap/internal/runner.MapOrder[go.shape.struct { a/b.c }]": "tune",
		"commoverlap/internal/mat.Gemm":                                   "core",
		"runtime.mallocgc":                                                "runtime",
		"aeshashbody":                                                     "runtime",
		"internal/runtime/syscall.Syscall6":                               "net_http_json",
		"internal/runtime/maps.(*Map).Get":                                "runtime",
		"net/http.(*conn).serve":                                          "net_http_json",
		"encoding/json.(*decodeState).object":                             "net_http_json",
		"strconv.ParseFloat":                                              "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestUpdateGolden regenerates the paper-kernels golden file (about ten
// seconds); run it only when the model's output is meant to change.
func TestUpdateGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/paper_kernels.golden")
	}
	var b strings.Builder
	for _, c := range paperCells(false) {
		out, _, _, _, err := runKernel(c, false)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		fmt.Fprintf(&b, "%s %s\n", c, out)
	}
	if err := os.WriteFile("testdata/paper_kernels.golden", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
