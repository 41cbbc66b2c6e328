// Package check is a schedule-exploration model checker for the simulation
// stack. The discrete-event engine is deterministic, which makes tests
// reproducible but also means every test exercises exactly one of the many
// legal event schedules: whenever several events are pending at the same
// virtual instant, any dispatch order is a correct execution. This package
// drives whole simulated MPI jobs through many such schedules — seeded
// random and adversarial tie-break policies on the engine's event heap —
// and checks a library of invariants that must hold on every one of them:
//
//   - clock-monotone: virtual time never decreases across dispatched events.
//   - resource-fifo: every resource reservation starts no earlier than its
//     ready time and no earlier than the previous reservation's completion
//     (FIFO non-overlap).
//   - resource-accounting: every resource's post-run utilization snapshot
//     is consistent — counters nonnegative, busy time inside the active
//     window, no reservation outliving the run, busy + idle == elapsed.
//   - msg-admission: per (comm, src, dst), message envelopes are admitted in
//     send order, with contiguous sequence numbers from zero.
//   - non-overtaking: per (comm, src, dst, tag), receives match in send
//     order (MPI's non-overtaking rule).
//   - delivery: every posted message is admitted exactly once and matched
//     exactly once, with its byte count intact, and no admission or match
//     appears for a message that was never posted — under transient wire
//     loss this is the "no lost payload" guarantee of the retransmission
//     layer.
//   - oracle: collective and kernel results equal a serial oracle
//     (scenarios assert this through their fail callback).
//   - deadlock: the engine finishes without stuck processes.
//   - teardown: the world tears down clean — no pending requests, unmatched
//     receives, undelivered messages, held envelopes, never-woken parked
//     ranks, or live simulation processes (mpi.World.CheckClean).
//
// A failing run is reported with its (scenario, policy, seed) triple, which
// replays the identical schedule via `go test ./internal/check -run
// TestSchedules -scenario=NAME -policy=POLICY -seed=SEED` or the
// cmd/simcheck CLI.
package check

import (
	"fmt"

	"commoverlap/internal/faults"
	"commoverlap/internal/job"
	"commoverlap/internal/mpi"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
	"commoverlap/internal/trace"
)

// Violation is one invariant breach observed during a run.
type Violation struct {
	Invariant string // which invariant failed (see package doc)
	Detail    string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Failf records a scenario-level assertion failure (an oracle mismatch).
type Failf func(format string, args ...any)

// Scenario is one self-contained simulated MPI job the checker can run
// under many schedules. Body runs on every rank; it must be deterministic
// given the schedule and call fail instead of panicking on assertion
// failures.
type Scenario struct {
	Name      string
	Ranks     int
	Nodes     int
	Placement []int // optional rank -> node map; nil = round robin
	// Topo names the fabric topology the job runs on (simnet.TopoByName);
	// empty is the flat fabric. Topology-aware scenarios let the explorer
	// drive interior-link contention (shared uplinks, torus rails) through
	// the same invariant battery as the flat fabric.
	Topo string
	// Progress is the progress-engine label the job runs with
	// (progress.Parse): "dma" enables every node's DMA offload engine and
	// "rankN" dedicates N ranks per node as progress agents, so the checker
	// drives the engine's consumer-tagged resource charging through the
	// invariant battery. Empty is the engine off.
	Progress string
	// Setup, when non-nil, configures the world before launch — forcing a
	// collective-algorithm family member or adjusting switch points.
	Setup func(w *mpi.World)
	Body  func(p *mpi.Proc, fail Failf)
}

// Options tunes one checker run.
type Options struct {
	// Tie is the tie-break policy installed on the engine; nil keeps the
	// engine's default deterministic FIFO dispatch.
	Tie sim.TieBreak
	// Faults, when non-nil, installs a deterministic perturbation layer
	// (stragglers, degraded links, jitter, preemptions, transient chunk
	// loss) before launch. Every invariant stays armed: perturbation may
	// stretch the schedule but must never violate ordering, accounting, or
	// delivery.
	Faults *faults.Config
}

// Report is the outcome of running one scenario under one schedule.
type Report struct {
	Violations []Violation
	// Events, Messages and FinalTime fingerprint the schedule: two runs
	// with the same (scenario, policy, seed) must produce identical values.
	Events    int     // engine events dispatched
	Messages  int     // message-protocol records traced
	FinalTime float64 // virtual clock when the job finished
	// Resources holds the post-run accounting snapshot of every FIFO
	// resource the job touched, for utilization reporting (simcheck
	// -metrics) and the resource-accounting invariant.
	Resources []sim.ResourceStats
	// Log is the run's full message-protocol trace (simcheck -trace
	// exports it as Chrome trace JSON).
	Log *trace.MsgLog
	// Faults is the installed perturbation injector (nil on clean runs);
	// its Events expose the run's deterministic fault log.
	Faults *faults.Injector
}

// Failed reports whether any invariant was violated.
func (r Report) Failed() bool { return len(r.Violations) > 0 }

// collector accumulates violations. All writers run either in the caller's
// goroutine or in simulation processes, which the engine serializes, so no
// lock is needed.
type collector struct {
	violations []Violation
}

func (c *collector) addf(invariant, format string, args ...any) {
	c.violations = append(c.violations, Violation{invariant, fmt.Sprintf(format, args...)})
}

// RunScenario executes sc once under the given options with every invariant
// armed and returns the report.
func RunScenario(sc Scenario, opts Options) Report {
	col := &collector{}
	var inj *faults.Injector
	if opts.Faults != nil {
		var err error
		if inj, err = faults.New(*opts.Faults); err != nil {
			col.addf("setup", "faults: %v", err)
			return Report{Violations: col.violations}
		}
	}
	var events *int
	var log trace.MsgLog
	spec := job.Spec{
		Config:    simnet.DefaultConfig(sc.Nodes),
		Topo:      sc.Topo,
		Progress:  sc.Progress,
		Ranks:     sc.Ranks,
		Placement: sc.Placement,
		Setup: func(w *mpi.World) {
			if opts.Tie != nil {
				w.Eng.SetTieBreak(opts.Tie)
			}
			events = watchClock(w.Eng, col)
			// Any runaway poll spin should trip fast enough to diagnose.
			w.MaxPollTime = 60
			if sc.Setup != nil {
				sc.Setup(w)
			}
			if inj != nil {
				inj.Install(w)
			}
			watchResources(w, col)
			w.Probe = log.Add
		},
	}
	fail := func(format string, args ...any) { col.addf("oracle", format, args...) }
	w, err := job.Run(spec, func(p *mpi.Proc) {
		// A panic in a rank body runs on the rank's own goroutine; recover
		// here so it becomes a violation instead of killing the process.
		// The rank then exits early, so peers typically deadlock — the
		// engine reports that separately.
		defer func() {
			if r := recover(); r != nil {
				col.addf("panic", "rank %d: %v", p.Rank(), r)
			}
		}()
		sc.Body(p, fail)
	})
	if w == nil {
		col.addf("setup", "%v", err)
		return Report{Violations: col.violations}
	}
	if w.Eng.Live() > 0 {
		// A deadlock: Run returned the engine's error without checking
		// the teardown, which the leftover processes fail too.
		col.addf("deadlock", "%v", err)
		err = w.CheckClean()
	}
	if err != nil {
		col.addf("teardown", "%v", err)
	}
	checkMessageOrder(&log, col)
	checkDelivery(&log, col)
	resources := checkResourceAccounting(w, w.Eng.Now(), col)

	return Report{
		Violations: col.violations,
		Events:     *events,
		Messages:   len(log.Events()),
		FinalTime:  w.Eng.Now(),
		Resources:  resources,
		Log:        &log,
		Faults:     inj,
	}
}
