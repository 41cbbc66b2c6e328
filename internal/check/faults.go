package check

import (
	"fmt"

	"commoverlap/internal/faults"
)

// FaultProfile names one perturbation configuration for exploration. The
// profile's Seed field is overwritten per run with the exploration seed, so
// the same profile perturbs differently across seeds while staying fully
// replayable from the (scenario, profile, policy, seed) tuple.
type FaultProfile struct {
	Name   string
	Config faults.Config
}

// FaultProfiles returns the explorer's perturbation library:
//
//	noise   the skew-resilience preset at amplitude 1 — stragglers,
//	        degraded links, jitter, preemptions;
//	storm   amplitude 2 noise plus 5% transient chunk loss, the harshest
//	        combined profile;
//	loss    pure transport loss at 20% per chunk attempt, isolating the
//	        retransmission path.
func FaultProfiles() []FaultProfile {
	storm := faults.Noise(0, 2)
	storm.ChunkLossProb = 0.05
	return []FaultProfile{
		{Name: "noise", Config: faults.Noise(0, 1)},
		{Name: "storm", Config: storm},
		{Name: "loss", Config: faults.Lossy(0, 0.2)},
	}
}

// FindFaultProfile returns the named profile.
func FindFaultProfile(name string) (FaultProfile, bool) {
	for _, fp := range FaultProfiles() {
		if fp.Name == name {
			return fp, true
		}
	}
	return FaultProfile{}, false
}

// ExploreFaults runs every scenario under every fault profile and every
// policy — the fault seed tracking the schedule seed — with the full
// invariant set armed, delivery included: perturbation may slow a run
// arbitrarily but must never lose a payload, reorder admission, or break
// accounting. Results, aggregation and the replica pool mirror Explore.
func ExploreFaults(scens []Scenario, profiles []FaultProfile, policies []Policy, nSeeds int, baseSeed int64, workers int, report func(Result)) Summary {
	var specs []caseSpec
	for _, sc := range scens {
		for fi := range profiles {
			specs = appendPolicyCases(specs, sc, &profiles[fi], policies, nSeeds, baseSeed)
		}
	}
	return exploreCases(specs, workers, report)
}

// faultRepro renders the -faults argument for a Result's repro commands.
func faultRepro(profile string) string {
	if profile == "" {
		return ""
	}
	return fmt.Sprintf(" -faults %s", profile)
}
