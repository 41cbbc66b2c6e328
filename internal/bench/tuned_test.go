package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"commoverlap/internal/tune"
)

// quickTable is one cold quick-grid search over the default kernels,
// shared by the tests that apply it (the search is deterministic, so every
// caller would compute the identical table).
var quickTable = sync.OnceValues(func() (*tune.Table, error) {
	return tune.Search(tune.Options{Grid: tune.QuickGrid()})
})

// TestTunedBeatsFixed is the auto-tuner's asserted benchmark: over the
// default kernel workload (the Fig. 5 reduce regimes plus the 64-node
// paper-scale reduction), the per-kernel tuned parameters are at least as
// fast as every uniform (N_DUP, PPN) choice, strictly faster than the best
// of them (the kernels disagree about N_DUP), and strictly faster than
// blocking collectives. The simulator is exact, so the comparisons need no
// tolerance.
func TestTunedBeatsFixed(t *testing.T) {
	table, err := quickTable()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tuned(nil, Options{}, table)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Fixed[res.BestFixed]
	for _, s := range res.Fixed {
		if res.Tuned.Total > s.Total {
			t.Errorf("tuned total %.6fms slower than %s (%.6fms)", 1e3*res.Tuned.Total, s.Name, 1e3*s.Total)
		}
	}
	if res.Tuned.Total >= best.Total {
		t.Errorf("tuned total %.6fms not strictly faster than best fixed %s (%.6fms)",
			1e3*res.Tuned.Total, best.Name, 1e3*best.Total)
	}
	if res.Tuned.Total >= res.Blocking.Total {
		t.Errorf("tuned total %.6fms not strictly faster than blocking (%.6fms)",
			1e3*res.Tuned.Total, 1e3*res.Blocking.Total)
	}
	// The win comes from per-kernel disagreement: at least two kernels pick
	// different parameters.
	allSame := true
	for _, p := range res.Tuned.Params[1:] {
		if p != res.Tuned.Params[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("every kernel picked the same parameters; per-kernel tuning is vacuous")
	}
	// The paper-scale case (64-node reduce) must itself beat its blocking
	// cell — the Fig. 5 shape survives at production scale.
	for i, k := range res.Kernels {
		if k.Nodes == 64 && res.Tuned.Times[i] >= res.Blocking.Times[i] {
			t.Errorf("64-node tuned %.6fms not faster than blocking %.6fms",
				1e3*res.Tuned.Times[i], 1e3*res.Blocking.Times[i])
		}
	}
}

// TestQuickTableMatchesCommitted pins the committed TUNING.json: the cold
// quick-grid search over the default kernels, stamped with the committed
// Go version (provenance of the table, not of its numbers), must serialize
// to the committed bytes exactly. A model change that moves any cell fails
// here; regenerate the file with `overlapbench tune -quick -cold` and name
// the reason when the change is intended.
func TestQuickTableMatchesCommitted(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "TUNING.json"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tune.ReadTable(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	table, err := quickTable()
	if err != nil {
		t.Fatal(err)
	}
	got := *table
	got.GoVersion = ref.GoVersion
	var buf bytes.Buffer
	if err := got.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("cold quick table differs from TUNING.json; diff the file against `overlapbench tune -quick -cold -table T.json`")
	}
}

// TestTunedByteIdenticalAcrossWorkers renders the tuned experiment (table
// text plus CSV) sequentially and on 8 workers over a reduced workload and
// requires identical bytes.
func TestTunedByteIdenticalAcrossWorkers(t *testing.T) {
	grid := tune.Grid{
		Name:      "test",
		NDups:     []int{1, 2},
		PPNs:      []int{1, 2},
		LaunchPPN: 2,
		Protocols: []tune.Params{{}},
	}
	kernels := []tune.Kernel{
		{Op: "reduce", Bytes: 1 << 20, Nodes: 4},
		{Op: "bcast", Bytes: 1 << 20, Nodes: 4},
	}
	render := func(workers int) string {
		table, err := tune.Search(tune.Options{Grid: grid, Kernels: kernels, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		res, err := Tuned(&sb, Options{Workers: workers}, table)
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
		t.Fatalf("tuned output differs between 1 and 8 workers:\n--- sequential ---\n%s\n--- 8 workers ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "per-kernel tuned") {
		t.Fatalf("render produced no table:\n%s", seq)
	}
}

// TestPaperScaleTuned: the tuned rows extend the paper-scale experiment and
// the tuned collective is no slower than the fixed 4-PPN case it
// generalizes.
func TestPaperScaleTuned(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep in -short mode")
	}
	table, err := quickTable()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res, err := PaperScaleTuned(&sb, Options{N: 4000}, table)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TunedApplied || len(res.TunedKernel) != len(res.Rows) {
		t.Fatalf("tuned rows missing: %+v", res)
	}
	if res.TunedCollBW < res.CollBW[MultiPPNOverlap] {
		t.Errorf("tuned collective %.0f MB/s below fixed 4-PPN %.0f MB/s",
			res.TunedCollBW, res.CollBW[MultiPPNOverlap])
	}
	if res.TunedCollBW <= res.CollBW[Blocking] {
		t.Errorf("tuned collective %.0f MB/s not above blocking %.0f MB/s",
			res.TunedCollBW, res.CollBW[Blocking])
	}
	for i, tf := range res.TunedKernel {
		if tf < 0.95*res.Rows[i].KernelND4 {
			t.Errorf("mesh %d: tuned kernel %.2f TFlops more than 5%% below fixed N_DUP=4 %.2f",
				res.Rows[i].MeshEdge, tf, res.Rows[i].KernelND4)
		}
	}
	if !strings.Contains(sb.String(), "Tuning table applied") {
		t.Error("tuned section missing from output")
	}
	var csv strings.Builder
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "tuned-collective") || !strings.Contains(csv.String(), "tuned-scaling") {
		t.Errorf("tuned CSV rows missing:\n%s", csv.String())
	}
}
