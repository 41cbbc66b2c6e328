package check

import (
	"fmt"

	"commoverlap/internal/runner"
	"commoverlap/internal/sim"
)

// Policy is a named family of tie-break policies. Seeded reports whether
// the seed changes the schedule (only the random policy); for unseeded
// policies the explorer runs each scenario once instead of once per seed.
type Policy struct {
	Name   string
	Seeded bool
	New    func(seed int64) sim.TieBreak
}

// Policies returns the explorer's schedule families:
//
//	fifo    the engine's default deterministic order (nil tie-break),
//	lifo    adversarial — always runs the most recently scheduled tied
//	        event first, the inverse of what the code was written under,
//	random  seeded uniform choice among tied events, replayable from the
//	        seed.
func Policies() []Policy {
	return []Policy{
		{Name: "fifo", New: func(int64) sim.TieBreak { return nil }},
		{Name: "lifo", New: func(int64) sim.TieBreak { return sim.LIFO() }},
		{Name: "random", Seeded: true, New: func(seed int64) sim.TieBreak { return sim.Seeded(seed) }},
	}
}

// FindPolicy returns the named policy.
func FindPolicy(name string) (Policy, bool) {
	for _, p := range Policies() {
		if p.Name == name {
			return p, true
		}
	}
	return Policy{}, false
}

// Result is the outcome of one (scenario, profile, policy, seed) run.
// Profile is empty on clean (unperturbed) runs.
type Result struct {
	Scenario string
	Profile  string // fault profile name, "" when no faults were injected
	Policy   string
	Seed     int64 // meaningful only for seeded policies (and fault profiles)
	Report
}

// Schedule describes the run's schedule as a human-readable tuple.
func (r Result) Schedule() string {
	name := r.Scenario
	if r.Profile != "" {
		name += "+" + r.Profile
	}
	if p, ok := FindPolicy(r.Policy); ok && p.Seeded || r.Profile != "" {
		return fmt.Sprintf("%s/%s/seed=%d", name, r.Policy, r.Seed)
	}
	return fmt.Sprintf("%s/%s", name, r.Policy)
}

// Repro returns shell commands that replay exactly this schedule.
func (r Result) Repro() []string {
	return []string{
		fmt.Sprintf("go test ./internal/check -run 'TestSchedules$' -scenario=%s -policy=%s -seed=%d -schedules=1",
			r.Scenario, r.Policy, r.Seed),
		fmt.Sprintf("go run ./cmd/simcheck -scenario %s -policy %s -seed %d%s -n 1",
			r.Scenario, r.Policy, r.Seed, faultRepro(r.Profile)),
	}
}

// Summary aggregates an exploration.
type Summary struct {
	Runs      int // total scenario executions
	Schedules int // distinct seeded (random-policy) schedules among them
	Failures  []Result
}

// Explore runs every scenario under every policy — unseeded policies once,
// the seeded policy once per seed in [baseSeed, baseSeed+nSeeds) — and
// reports each run to report (if non-nil) in enumeration order. It returns
// the aggregate summary; exploration continues past failures so one bad
// schedule does not mask another. Runs execute on a replica pool of the
// given width: 0 picks GOMAXPROCS, 1 forces the sequential order. Every run
// is an isolated engine, so the summary and report stream are
// byte-identical to a sequential exploration at any worker count.
func Explore(scens []Scenario, policies []Policy, nSeeds int, baseSeed int64, workers int, report func(Result)) Summary {
	var specs []caseSpec
	for _, sc := range scens {
		specs = appendPolicyCases(specs, sc, nil, policies, nSeeds, baseSeed)
	}
	return exploreCases(specs, workers, report)
}

// caseSpec is one (scenario, profile, policy, seed) run of an exploration;
// profile is nil on clean (unperturbed) runs.
type caseSpec struct {
	sc   Scenario
	fp   *FaultProfile
	pol  Policy
	seed int64
}

// appendPolicyCases appends one caseSpec per (policy, seed) for a scenario
// (and optional fault profile), unseeded policies once, seeded ones once per
// seed — the explorers' shared enumeration order.
func appendPolicyCases(specs []caseSpec, sc Scenario, fp *FaultProfile, policies []Policy, nSeeds int, baseSeed int64) []caseSpec {
	for _, pol := range policies {
		if !pol.Seeded {
			specs = append(specs, caseSpec{sc: sc, fp: fp, pol: pol, seed: baseSeed})
			continue
		}
		for i := 0; i < nSeeds; i++ {
			specs = append(specs, caseSpec{sc: sc, fp: fp, pol: pol, seed: baseSeed + int64(i)})
		}
	}
	return specs
}

// exploreCases fans the enumerated runs across the replica pool — every run
// is an isolated engine, so replicas share no state — then aggregates and
// reports them in enumeration order, which keeps the summary and the report
// stream independent of worker interleaving.
func exploreCases(specs []caseSpec, workers int, report func(Result)) Summary {
	results, _ := runner.Map(len(specs), workers, func(i int) (Result, error) {
		spec := specs[i]
		res := Result{Scenario: spec.sc.Name, Policy: spec.pol.Name, Seed: spec.seed}
		opts := Options{Tie: spec.pol.New(spec.seed)}
		if spec.fp != nil {
			res.Profile = spec.fp.Name
			cfg := spec.fp.Config
			cfg.Seed = spec.seed
			opts.Faults = &cfg
		}
		res.Report = RunScenario(spec.sc, opts)
		return res, nil
	})
	var sum Summary
	for i, res := range results {
		sum.Runs++
		if specs[i].pol.Seeded {
			sum.Schedules++
		}
		if res.Failed() {
			sum.Failures = append(sum.Failures, res)
		}
		if report != nil {
			report(res)
		}
	}
	return sum
}
