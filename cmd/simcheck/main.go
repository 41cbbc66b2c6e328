// Command simcheck explores event schedules of the simulated MPI stack and
// checks every run against the invariant library in internal/check: clock
// monotonicity, FIFO resource non-overlap, in-order message admission, MPI
// non-overtaking, oracle-equal results, and clean teardown.
//
// Every scenario in the catalog runs under the deterministic fifo and
// adversarial lifo policies plus -n seeded random schedules. A violation
// prints the (scenario, policy, seed) triple and the commands that replay
// it; the exit status is 1 if any schedule failed.
//
//	simcheck -n 100                  # 100 seeded schedules per scenario
//	simcheck -list                   # catalog
//	simcheck -scenario p2p-burst -policy random -seed 17 -n 1   # replay
//	simcheck -faults all -n 5        # every fault profile over every scenario
//
// -faults runs each schedule under a named fault-injection profile (noise,
// storm, loss — see -list; "all" runs every profile). The fault seed tracks
// the schedule seed, so a failing (scenario, profile, policy, seed) tuple
// replays exactly; perturbation must never break an invariant — the
// delivery check additionally proves no payload is lost, duplicated or
// corrupted by the retransmission layer.
//
// -metrics adds a per-run resource-utilization line (mean busy fraction of
// the wire, CPU and NIC lanes over the run, plus the single busiest
// resource). -trace FILE exports one run's message-protocol events as
// Chrome trace JSON; it requires a single-run selection (-scenario and
// -policy, with -n 1 for the random policy), since one trace file can only
// hold one schedule.
//
// Schedules fan out across the replica pool (-workers, default GOMAXPROCS;
// every run is an isolated engine) and are reported in enumeration order,
// so output and exit status are identical at any worker count.
// -cpuprofile/-memprofile write pprof profiles of the exploration itself.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"commoverlap/internal/check"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
	"commoverlap/internal/trace"
)

// utilLine summarizes a run's resource snapshots: mean busy fraction per
// lane class (simnet.MeanLaneUtil) and the busiest single resource.
func utilLine(resources []sim.ResourceStats, elapsed float64) string {
	if elapsed <= 0 {
		return "util: n/a (zero elapsed)"
	}
	var topName string
	var top float64
	for _, s := range resources {
		if f := s.Utilization(elapsed); f > top {
			top, topName = f, s.Name
		}
	}
	u := simnet.MeanLaneUtil(resources, elapsed)
	return fmt.Sprintf("util: wire %.1f%% cpu %.1f%% nic %.1f%% (busiest %s %.1f%%)",
		100*u.Wire, 100*u.CPU, 100*u.NIC, topName, 100*top)
}

// main only turns realMain's status into the process exit, so every exit,
// the error exits included, runs the -cpuprofile/-memprofile writers that
// realMain defers.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		n        = flag.Int("n", 25, "seeded random schedules per scenario")
		seed     = flag.Int64("seed", 1, "base seed for the random policy")
		scenario = flag.String("scenario", "", "run only the named scenario (default: whole catalog)")
		policy   = flag.String("policy", "", "run only the named policy: fifo, lifo or random (default: all)")
		list     = flag.Bool("list", false, "list scenarios and policies, then exit")
		verbose  = flag.Bool("v", false, "print every run, not just failures")
		metrics  = flag.Bool("metrics", false, "print per-run resource utilization")
		traceOut = flag.String("trace", "", "export the run's message events as Chrome trace JSON (single run only)")
		faultsIn = flag.String("faults", "", "run under a fault profile: noise, storm, loss, or all")
		workers  = flag.Int("workers", 0, "replica-pool width (0 = GOMAXPROCS, 1 = sequential)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			runtime.GC()
			f, err := os.Create(path)
			if err == nil {
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "simcheck: -memprofile %s: %v\n", path, err)
			}
		}()
	}

	if *list {
		fmt.Println("scenarios:")
		for _, sc := range check.Catalog() {
			fmt.Printf("  %-16s %d ranks on %d nodes\n", sc.Name, sc.Ranks, sc.Nodes)
		}
		fmt.Println("policies:")
		for _, pol := range check.Policies() {
			seeded := "deterministic"
			if pol.Seeded {
				seeded = "seeded"
			}
			fmt.Printf("  %-16s %s\n", pol.Name, seeded)
		}
		fmt.Println("fault profiles (-faults):")
		for _, fp := range check.FaultProfiles() {
			fmt.Printf("  %-16s\n", fp.Name)
		}
		return 0
	}

	scens := check.Catalog()
	if *scenario != "" {
		sc, ok := check.Find(*scenario)
		if !ok {
			fmt.Fprintf(os.Stderr, "simcheck: unknown scenario %q (use -list)\n", *scenario)
			return 2
		}
		scens = []check.Scenario{sc}
	}
	policies := check.Policies()
	if *policy != "" {
		pol, ok := check.FindPolicy(*policy)
		if !ok {
			fmt.Fprintf(os.Stderr, "simcheck: unknown policy %q (use -list)\n", *policy)
			return 2
		}
		policies = []check.Policy{pol}
	}

	seededRuns := 0
	for _, pol := range policies {
		if pol.Seeded {
			seededRuns += *n - 1
		}
	}
	singleRun := len(scens) == 1 && len(policies) == 1 && seededRuns <= 0
	if *traceOut != "" && !singleRun {
		fmt.Fprintln(os.Stderr,
			"simcheck: -trace needs a single-run selection: -scenario NAME -policy POLICY (and -n 1 for random)")
		return 2
	}

	var profiles []check.FaultProfile
	if *faultsIn != "" && *faultsIn != "all" {
		fp, ok := check.FindFaultProfile(*faultsIn)
		if !ok {
			fmt.Fprintf(os.Stderr, "simcheck: unknown fault profile %q (use -list)\n", *faultsIn)
			return 2
		}
		profiles = []check.FaultProfile{fp}
	} else if *faultsIn == "all" {
		profiles = check.FaultProfiles()
	}

	// traceErr is a failed -trace write; the run it belongs to is the only
	// one, so the summary is skipped and the exit status is 1.
	var traceErr error
	report := func(r check.Result) {
		if r.Failed() {
			fmt.Printf("FAIL %s: %d violation(s)\n", r.Schedule(), len(r.Violations))
			for _, v := range r.Violations {
				fmt.Printf("     %s\n", v)
			}
			for _, cmd := range r.Repro() {
				fmt.Printf("     repro: %s\n", cmd)
			}
		} else if *verbose || *metrics {
			fmt.Printf("ok   %-40s events=%-6d msgs=%-5d t=%.6gs\n",
				r.Schedule(), r.Events, r.Messages, r.FinalTime)
		}
		if *metrics {
			fmt.Printf("     %s\n", utilLine(r.Resources, r.FinalTime))
		}
		if *traceOut != "" && r.Log != nil {
			f, err := os.Create(*traceOut)
			if err == nil {
				bw := bufio.NewWriter(f)
				err = trace.WriteChromeTrace(bw, r.Log.ChromeEvents())
				if err == nil {
					err = bw.Flush()
				}
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				traceErr = err
				return
			}
			fmt.Printf("     [wrote Chrome trace %s]\n", *traceOut)
		}
	}

	var sum check.Summary
	if profiles != nil {
		sum = check.ExploreFaults(scens, profiles, policies, *n, *seed, *workers, report)
	} else {
		sum = check.Explore(scens, policies, *n, *seed, *workers, report)
	}
	if traceErr != nil {
		fmt.Fprintf(os.Stderr, "simcheck: -trace %s: %v\n", *traceOut, traceErr)
		return 1
	}

	fmt.Printf("simcheck: %d runs (%d seeded schedules across %d scenarios, policies:",
		sum.Runs, sum.Schedules, len(scens))
	for _, pol := range policies {
		fmt.Printf(" %s", pol.Name)
	}
	fmt.Printf("), %d failed\n", len(sum.Failures))
	if len(sum.Failures) > 0 {
		return 1
	}
	return 0
}
