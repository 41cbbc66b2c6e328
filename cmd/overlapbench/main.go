// Command overlapbench regenerates the paper's tables and figures on the
// simulated machine.
//
// Usage:
//
//	overlapbench [flags] [experiment ...]
//	overlapbench -validate-trace file
//	overlapbench tune [-quick] [-table file] [-cells-csv file] [-cold]
//	overlapbench serve [-addr host:port] [-queue n] [-max-jobs n] [-worker-cap n]
//
// The experiments are internal/bench's registry, which -h lists: the
// paper's figures and tables (fig3-fig6, table1-table5), then this
// reproduction's extensions. "all" (the default) runs every experiment
// except the by-name-only ones: the tuning-table comparisons, which read
// the -table tuning table; the ML-workload and progress-engine
// head-to-heads, which -quick shrinks to CI smoke sizes; and report, which
// re-runs the evaluation and checks every paper claim. Experiments run in
// registry order whatever order they are named in. -csv DIR also writes
// each experiment's data as DIR/<name>.csv, and -n overrides the matrix
// dimension of the kernel experiments (default: the paper's 1hsg_70,
// N = 7645). An unknown experiment name or subcommand exits 2 with a usage
// message; a subcommand given arguments it does not take exits 1.
//
// The tune subcommand regenerates the -table tuning table (see
// internal/tune): a deterministic parallel search over the overlap
// parameter space through a content-addressed result store
// (internal/cache) seeded from the existing table, so only cells whose
// provenance hashes no longer match are re-simulated; -cold starts from an
// empty store. -quick sweeps the coarse CI grid instead of the full one.
//
// The serve subcommand runs overlapbench as a long-running tuning service
// (see internal/serve): an HTTP/JSON job API — POST /jobs, GET /jobs/{id},
// /jobs/{id}/result, /jobs/{id}/events (NDJSON cell stream), /stats — over
// the replica pool, with the cross-job result cache so the same cell is
// never simulated twice, a bounded job queue (503 on overflow), a global
// worker cap shared across concurrent jobs, and graceful drain on
// SIGINT/SIGTERM.
//
// -trace writes the fig6 operation timeline as Chrome trace-event JSON
// (load in Perfetto or chrome://tracing). -metrics installs a virtual-time
// metrics registry into every cell internal/bench runs itself and dumps the
// accumulated counters when the run finishes; the cells tuned, progress,
// mlwork and paperscale-tuned's tuned collective measure inside
// internal/tune and internal/workload take no registry and add nothing.
// -validate-trace checks that a previously exported trace file is
// well-formed (used by CI) and exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"commoverlap/internal/bench"
	"commoverlap/internal/cache"
	"commoverlap/internal/metrics"
	"commoverlap/internal/trace"
	"commoverlap/internal/tune"
)

// subcommands are the non-experiment modes, each with its own flag set.
// tune takes the top-level -workers pool width.
var subcommands = map[string]func(args []string, workers int) error{
	"tune":  runTune,
	"serve": func(args []string, _ int) error { return runServe(args) },
}

// usage lists the invocation forms, generated from the experiment registry.
func usage(w io.Writer) {
	var all, named, subs []string
	for _, e := range bench.Experiments {
		if e.Named {
			named = append(named, e.Name)
		} else {
			all = append(all, e.Name)
		}
	}
	for name := range subcommands {
		subs = append(subs, name)
	}
	sort.Strings(subs)
	fmt.Fprintf(w, "usage: overlapbench [flags] [experiment ...]\n"+
		"experiments:  %s all\n"+
		"by name only: %s\n"+
		"subcommands:  %s\n",
		strings.Join(all, " "), strings.Join(named, " "), strings.Join(subs, " "))
}

// selectExperiments resolves experiment names (none means "all") to
// registry entries in registry order. An unknown name is an error: silently
// running the default path on a typo reads as "the experiment ran".
func selectExperiments(names []string) ([]bench.Experiment, error) {
	if len(names) == 0 {
		names = []string{"all"}
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	all := want["all"]
	delete(want, "all")
	var sel []bench.Experiment
	for _, e := range bench.Experiments {
		if want[e.Name] || all && !e.Named {
			sel = append(sel, e)
		}
		delete(want, e.Name)
	}
	for _, n := range names {
		if want[n] {
			return nil, fmt.Errorf("unknown experiment or subcommand %q", n)
		}
	}
	return sel, nil
}

// main only translates realMain's status into a process exit. Every error
// path must go through realMain's return so the -cpuprofile/-memprofile
// defers flush before the process dies — calling os.Exit anywhere inside
// realMain (or a closure it builds) would silently drop the profiles of
// exactly the runs one is profiling to debug.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var o bench.Options
	flag.IntVar(&o.N, "n", 0, "matrix dimension for the kernel experiments (0 = paper's 1hsg_70)")
	csvDir := flag.String("csv", "", "directory to write <experiment>.csv files into")
	flag.StringVar(&o.TracePath, "trace", "", "write the fig6 timeline as Chrome trace JSON to this file")
	showMetrics := flag.Bool("metrics", false, "accumulate and print virtual-time metrics across the runs (not the tuner and workload cells of tuned, progress and mlwork)")
	validate := flag.String("validate-trace", "", "validate a Chrome trace JSON file and exit")
	flag.IntVar(&o.Workers, "workers", 0, "replica-pool width (0 = GOMAXPROCS, 1 = sequential)")
	flag.StringVar(&o.TablePath, "table", "TUNING.json", "tuning table the tuned experiments apply")
	flag.BoolVar(&o.Quick, "quick", false, "CI smoke payload sizes for the ML-workload and progress-engine experiments")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = func() {
		usage(os.Stderr)
		flag.PrintDefaults()
	}
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			runtime.GC()
			if err := bench.WriteFile(path, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *validate != "" {
		f, err := os.Open(*validate)
		if err == nil {
			err = trace.ValidateChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *validate, err)
			return 1
		}
		fmt.Printf("%s: valid Chrome trace\n", *validate)
		return 0
	}
	args := flag.Args()
	if len(args) > 0 && subcommands[args[0]] != nil {
		if err := subcommands[args[0]](args[1:], o.Workers); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", args[0], err)
			return 1
		}
		return 0
	}
	sel, err := selectExperiments(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "overlapbench: %v\n", err)
		usage(os.Stderr)
		return 2
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *showMetrics {
		o.Metrics = &metrics.Registry{}
	}
	// A failure stops the sweep and returns through realMain, so the
	// profile defers still flush.
	for _, e := range sel {
		start := time.Now()
		csv, err := e.Run(os.Stdout, o)
		if err == nil && csv != nil && *csvDir != "" {
			path := filepath.Join(*csvDir, e.Name+".csv")
			if err = bench.WriteFile(path, csv); err == nil {
				fmt.Printf("  [wrote %s]\n", path)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		fmt.Printf("  [%s regenerated in %.1fs wall time]\n\n", e.Name, time.Since(start).Seconds())
	}
	if *showMetrics {
		fmt.Println("Virtual-time metrics accumulated across the runs:")
		o.Metrics.WriteText(os.Stdout)
	}
	return 0
}

// runTune regenerates a tuning table: a full or -quick grid search over the
// default kernel set through a store seeded from the existing table at
// -table (unless -cold), so only cells whose provenance hashes changed are
// simulated, then persisted back to -table (plus a per-cell CSV with
// -cells-csv).
func runTune(args []string, workers int) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "coarse grid (the CI smoke table) instead of the full search space")
	tablePath := fs.String("table", "TUNING.json", "tuning table to seed the search from and write back to")
	cellsCSV := fs.String("cells-csv", "", "also write every measured cell as CSV to this file")
	cold := fs.Bool("cold", false, "ignore an existing table (re-measure every cell)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) != 0 {
		return fmt.Errorf("unexpected arguments %q\nusage: overlapbench tune [-quick] [-table file] [-cells-csv file] [-cold]", fs.Args())
	}
	grid := tune.FullGrid()
	if *quick {
		grid = tune.QuickGrid()
	}
	store := cache.New(0)
	if !*cold {
		if t, err := tune.LoadTable(*tablePath); err == nil {
			t.Seed(store)
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "  [not seeding from the table: %v]\n", err)
		}
	}
	start := time.Now()
	table, err := tune.Search(tune.Options{Grid: grid, Workers: workers, Cache: store})
	if err != nil {
		return err
	}
	for _, e := range table.Entries {
		fmt.Printf("  %s\n", e)
	}
	reused, total := table.CachedCount()
	fmt.Printf("  [%s grid: %d of %d cells reused from the table, in %.1fs wall time]\n",
		grid.Name, reused, total, time.Since(start).Seconds())
	if err := tune.SaveTable(*tablePath, table); err != nil {
		return err
	}
	fmt.Printf("  [wrote %s]\n", *tablePath)
	if *cellsCSV != "" {
		if err := bench.WriteFile(*cellsCSV, table.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("  [wrote %s]\n", *cellsCSV)
	}
	return nil
}
