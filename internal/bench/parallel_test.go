package bench

import (
	"strings"
	"testing"

	"commoverlap/internal/metrics"
)

// The determinism regression tests for the replica pool: the same
// experiment, rendered text and CSV included, must be byte-identical
// whether the cells run sequentially or fanned across several workers.
// Determinism lives in the index keying, not the scheduling — these tests
// pin that contract.

// TestParallelFigureSweepByteIdentical regenerates a full figure — table
// text plus CSV — sequentially and at 8 workers and requires identical
// bytes.
func TestParallelFigureSweepByteIdentical(t *testing.T) {
	render := func(workers int) string {
		var sb strings.Builder
		res, err := Fig5(&sb, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("fig5 output differs between 1 and 8 workers:\n--- sequential ---\n%s\n--- 8 workers ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "Figure 5") {
		t.Fatalf("render produced no table:\n%s", seq)
	}
}

// TestParallelKernelTableByteIdentical does the same for a kernel table
// (different job shape: nested engines, world construction, placement) at a
// reduced size so the test stays fast.
func TestParallelKernelTableByteIdentical(t *testing.T) {
	render := func(workers int) string {
		var sb strings.Builder
		if _, err := Table3(&sb, Options{Workers: workers, N: 2000}); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("table3 output differs between 1 and 8 workers:\n--- sequential ---\n%s\n--- 8 workers ---\n%s", seq, par)
	}
}

// TestMetricsPinsPoolToOneWorker: a non-nil metrics registry is the one
// piece of cross-replica state, so parcases must ignore the pool width
// while it is installed (otherwise registry accumulation would race).
func TestMetricsPinsPoolToOneWorker(t *testing.T) {
	if _, err := Fig3(nil, Options{Workers: 8, Metrics: &metrics.Registry{}}); err != nil {
		t.Fatal(err)
	}
}
