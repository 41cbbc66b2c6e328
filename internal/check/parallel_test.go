package check

import (
	"fmt"
	"strings"
	"testing"
)

// Determinism regression for the parallel explorer: the full exploration —
// summary counts, per-run reports in enumeration order, failure list — must
// be byte-identical whether schedules run sequentially or fanned across
// several workers.

// exploreTranscript renders an exploration as one string: every report
// callback in order, then the summary.
func exploreTranscript(t *testing.T, faults bool, workers int) string {
	t.Helper()
	var sb strings.Builder
	report := func(r Result) {
		fmt.Fprintf(&sb, "%s events=%d msgs=%d t=%.9g failed=%v\n",
			r.Schedule(), r.Events, r.Messages, r.FinalTime, r.Failed())
	}
	var sum Summary
	if faults {
		sum = ExploreFaults(Catalog(), FaultProfiles(), Policies(), 3, 1, workers, report)
	} else {
		sum = Explore(Catalog(), Policies(), 3, 1, workers, report)
	}
	fmt.Fprintf(&sb, "runs=%d schedules=%d failures=%d\n", sum.Runs, sum.Schedules, len(sum.Failures))
	return sb.String()
}

// TestParallelExploreByteIdentical: the clean exploration at 1 vs 8 workers.
func TestParallelExploreByteIdentical(t *testing.T) {
	seq, par := exploreTranscript(t, false, 1), exploreTranscript(t, false, 8)
	if seq != par {
		t.Fatalf("Explore transcript differs between 1 and 8 workers:\n--- sequential ---\n%s--- 8 workers ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "runs=") || strings.Contains(seq, "failed=true") {
		t.Fatalf("unexpected transcript:\n%s", seq)
	}
}

// TestParallelExploreFaultsByteIdentical: the fault-injected exploration —
// every scenario under every perturbation profile and policy — at 1 vs 8
// workers. This is the heaviest shared path (injectors, retransmission,
// per-run seeded rand) and must stay schedule-independent.
func TestParallelExploreFaultsByteIdentical(t *testing.T) {
	seq, par := exploreTranscript(t, true, 1), exploreTranscript(t, true, 8)
	if seq != par {
		t.Fatalf("ExploreFaults transcript differs between 1 and 8 workers:\n--- sequential ---\n%s--- 8 workers ---\n%s", seq, par)
	}
}
