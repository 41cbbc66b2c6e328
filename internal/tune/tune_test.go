package tune

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"commoverlap/internal/cache"
	"commoverlap/internal/mpi"
	"commoverlap/internal/progress"
)

// testGrid is a small grid that keeps the test sweep fast while still
// crossing every axis kind (NDup, PPN with parking, a protocol variant, a
// forced algorithm).
func testGrid() Grid {
	return Grid{
		Name:      "test",
		NDups:     []int{1, 2},
		PPNs:      []int{1, 2},
		LaunchPPN: 2,
		Protocols: []Params{{}, {ChunkBytes: 64 << 10}},
		Algs:      []string{"", "ring"},
	}
}

func testKernels() []Kernel {
	return []Kernel{
		{Op: "reduce", Bytes: 1 << 20, Nodes: 4},
		{Op: "bcast", Bytes: 256 << 10, Nodes: 4},
		{Op: "allreduce", Bytes: 512 << 10, Nodes: 4, Topo: "hier"},
	}
}

func marshal(t *testing.T, tab *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSearchDeterministicAcrossWorkers: the emitted table is byte-identical
// whether the cells run sequentially or on eight workers.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	seq, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, seq), marshal(t, par)) {
		t.Error("table differs between 1 and 8 workers")
	}
	for _, e := range seq.Entries {
		if e.BestBW <= 0 {
			t.Errorf("%s: non-positive best bandwidth", e.Kernel.Name())
		}
		// 2 ndup x 2 ppn x 2 protocols; ring applies only to the allreduce
		// kernel, doubling its sweep.
		want := 8
		if e.Kernel.Op == "allreduce" {
			want = 16
		}
		if len(e.Cells) != want {
			t.Errorf("%s: %d cells, want %d", e.Kernel.Name(), len(e.Cells), want)
		}
	}
}

// TestWarmStart: a search through a store seeded from a prior table
// simulates only the cells whose provenance hash no longer matches, and
// emits a byte-identical table either way.
func TestWarmStart(t *testing.T) {
	cold, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c, n := cold.CachedCount(); c != 0 || n == 0 {
		t.Fatalf("cold search: %d/%d cached cells", c, n)
	}
	reseed := func(t *testing.T, from *Table) (*Table, cache.Stats) {
		t.Helper()
		store := cache.New(0)
		from.Seed(store)
		tab, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: 4, Cache: store})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, cold), marshal(t, tab)) {
			t.Error("seeded table differs from cold table")
		}
		return tab, store.Stats()
	}
	warm, st := reseed(t, cold)
	if c, n := warm.CachedCount(); st.Misses != 0 || c != n {
		t.Errorf("fully seeded search simulated %d cells (%d of %d cached)", st.Misses, c, n)
	}

	// Invalidate one cell's hash (as a calibration change would): exactly
	// that cell is re-measured, and the result is still identical.
	stale := *cold
	stale.Entries = append([]Entry(nil), cold.Entries...)
	stale.Entries[0].Cells = append([]Cell(nil), cold.Entries[0].Cells...)
	stale.Entries[0].Cells[3].Hash = "stale"
	warm2, st := reseed(t, &stale)
	if c, n := warm2.CachedCount(); st.Misses != 1 || n-c != 1 {
		t.Errorf("stale-hash search simulated %d cells (%d of %d cached), want 1", st.Misses, c, n)
	}
}

// TestMeasurePPNParking: a cell with PPN below the launch width parks the
// surplus ranks and still completes with positive bandwidth.
func TestMeasurePPNParking(t *testing.T) {
	k := Kernel{Op: "reduce", Bytes: 1 << 20, Nodes: 4}
	bw, err := Measure(k, Params{NDup: 2, PPN: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bw <= 0 {
		t.Errorf("bandwidth %g", bw)
	}
	if _, err := Measure(k, Params{NDup: 1, PPN: 8}, 4); err == nil {
		t.Error("PPN above launch width accepted")
	}
	if _, err := Measure(Kernel{Op: "gather", Bytes: 1, Nodes: 2}, Params{NDup: 1, PPN: 1}, 1); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestTableRoundTripAndLookup(t *testing.T) {
	tab, err := Search(Options{Grid: testGrid(), Kernels: testKernels(), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tuning.json")
	if err := SaveTable(path, tab); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, tab), marshal(t, back)) {
		t.Error("table changed across save/load")
	}

	k := testKernels()[0]
	if e := back.Lookup(k); e == nil || e.Kernel != k {
		t.Fatalf("Lookup(%v) = %v", k, e)
	}
	if e := back.Lookup(Kernel{Op: "reduce", Bytes: 3, Nodes: 99}); e != nil {
		t.Error("Lookup of untuned kernel returned an entry")
	}
	// Nearest: a reduce close to 1 MiB resolves to the 1 MiB entry.
	if e := back.Nearest("reduce", 2<<20, 4, ""); e == nil || e.Kernel != k {
		t.Errorf("Nearest(reduce, 2MiB) = %+v", e)
	}
	if e := back.Nearest("gather", 1, 1, ""); e != nil {
		t.Error("Nearest for unknown op returned an entry")
	}

	var csv bytes.Buffer
	if err := back.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.Len() == 0 || bytes.Count(csv.Bytes(), []byte("\n")) != 1+8+8+16 {
		t.Errorf("CSV has %d lines", bytes.Count(csv.Bytes(), []byte("\n")))
	}
}

// TestKernelConfig: the application layer takes the bcast winner's width as
// NDupAB and the reduction winner's as NDup, and needs an entry for both.
func TestKernelConfig(t *testing.T) {
	tab := &Table{
		Version: TableVersion,
		Entries: []Entry{
			{Kernel: Kernel{Op: "reduce", Bytes: 8 << 20, Nodes: 4}, Best: Params{NDup: 4, PPN: 2}},
			{Kernel: Kernel{Op: "bcast", Bytes: 8 << 20, Nodes: 4}, Best: Params{NDup: 2, PPN: 1}},
		},
	}
	cfg, err := tab.KernelConfig(4000, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.N != 4000 || cfg.NDup != 4 || cfg.NDupAB != 2 {
		t.Errorf("N=%d NDup=%d NDupAB=%d, want 4000, 4 and 2", cfg.N, cfg.NDup, cfg.NDupAB)
	}
	for _, missing := range []struct {
		op      string
		entries []Entry
	}{{"bcast", tab.Entries[:1]}, {"reduce", tab.Entries[1:]}} {
		part := &Table{Version: TableVersion, Entries: missing.entries}
		_, err := part.KernelConfig(4000, 4, 4)
		if err == nil || !strings.Contains(err.Error(), `"`+missing.op+`"`) {
			t.Errorf("table without a %s entry: err = %v", missing.op, err)
		}
	}
}

// TestGridCellFiltering: protocol variants that only move the other
// operation's switch point are dropped from a kernel's sweep, and forced
// algorithms additionally drop both switch-point variants. With FullGrid's
// 6 protocols that leaves 5 for auto and 4 per forced algorithm. The
// progress axis crosses the auto cells only ("" / rank1 / rank2 / dma); the
// engine-off and dma variants sweep all 4 PPNs, the rank modes skip PPN 8
// (no launched lane left for the agents), so one auto protocol contributes
// 8*(4+3+3+4) = 112 cells and a forced-alg protocol 8*4 = 32.
func TestGridCellFiltering(t *testing.T) {
	g := FullGrid()
	// bcast/reduce: 5 auto protocols * 112 + 2 forced algs * 4 protocols * 32.
	if got := len(cellsOf(g, "reduce")); got != 816 {
		t.Errorf("reduce kernel sweeps %d cells, want 816", got)
	}
	if got := len(cellsOf(g, "bcast")); got != 816 {
		t.Errorf("bcast kernel sweeps %d cells, want 816", got)
	}
	// allreduce: 5 auto protocols * 112 + 5 forced algs * 4 protocols * 32.
	if got := len(cellsOf(g, "allreduce")); got != 1200 {
		t.Errorf("allreduce kernel sweeps %d cells, want 1200", got)
	}
	// The engine crosses auto only, and rank-mode agents always fit.
	for _, c := range cellsOf(g, "reduce") {
		if c.Progress != "" && c.Alg != mpi.AlgAuto {
			t.Fatalf("progress %q crossed with forced alg %q", c.Progress, c.Alg)
		}
		if c.PPN+MustLanes(c.Progress) > g.LaunchPPN {
			t.Fatalf("cell ppn=%d progress=%q overflows launch width %d", c.PPN, c.Progress, g.LaunchPPN)
		}
	}
	if err := (Grid{Name: "bad", NDups: []int{1}, PPNs: []int{4}, LaunchPPN: 2, Protocols: []Params{{}}}).validate(); err == nil {
		t.Error("grid with PPN above launch width validated")
	}
	if err := (Grid{Name: "bad", NDups: []int{1}, PPNs: []int{1}, LaunchPPN: 2, Protocols: []Params{{}},
		Progresses: []string{"rank0"}}).validate(); err == nil {
		t.Error("grid with malformed progress label validated")
	}
}

// TestWorkloadCellsApplyNoSwitchPoint: no workload pattern takes a switch
// point, so no cell of a workload kernel carries a switch-point override;
// one would only measure its override-free twin again.
func TestWorkloadCellsApplyNoSwitchPoint(t *testing.T) {
	for op, spec := range ops {
		if !spec.workload {
			continue
		}
		n := 0
		for _, p := range cellsOf(FullGrid(), op) {
			if p.BcastLongMsg != 0 || p.ReduceLongMsg != 0 {
				n++
			}
		}
		if n != 0 {
			t.Errorf("%s: %d full-grid cells carry a switch-point override", op, n)
		}
	}
}

// TestPlanAdversarialAxes: Plan sizes a search in time linear in its axis
// lengths, however the axes are built. Every grid has axes of 10^5 entries:
// 10^10 one-cell blocks, which the budget guard must refuse after 8,193; a
// rankN label no PPN fits, whose empty blocks must cost nothing per
// protocol; and protocol variants a reduce kernel skips, which must not be
// re-examined for every progress entry.
func TestPlanAdversarialAxes(t *testing.T) {
	const n = 100_000
	k := Kernel{Op: "reduce", Bytes: 1 << 20, Nodes: 4}
	for _, tc := range []struct {
		name string
		g    Grid
		ok   bool
	}{
		{"one-cell blocks", Grid{NDups: []int{1}, PPNs: []int{1}, LaunchPPN: 4,
			Protocols: repeat(Params{}, n), Algs: repeat(mpi.AlgAuto, n), Progresses: repeat("", n)}, false},
		{"agents that never fit", Grid{NDups: repeat(1, n), PPNs: repeat(1, n), LaunchPPN: 4,
			Protocols: repeat(Params{}, n), Algs: repeat(mpi.AlgAuto, n), Progresses: repeat("rank4", n)}, true},
		{"skipped protocols", Grid{NDups: []int{1}, PPNs: []int{1}, LaunchPPN: 4,
			Protocols: append(repeat(Params{BcastLongMsg: 1}, n), Params{}), Progresses: repeat("", n)}, false},
	} {
		start := time.Now()
		_, err := Options{Grid: tc.g, Kernels: []Kernel{k}}.Plan()
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: Plan took %v", tc.name, d)
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: Plan error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestPlanCountsAndLimits: the built-in grids sit inside the limits, and a
// search over any limit is refused before a cell runs.
func TestPlanCountsAndLimits(t *testing.T) {
	for _, tc := range []struct {
		g    Grid
		want int
	}{{QuickGrid(), 360}, {FullGrid(), 7648}} {
		if got, err := (Options{Grid: tc.g}).Plan(); err != nil || got != tc.want {
			t.Errorf("%s grid over DefaultKernels: Plan = %d, %v; want %d cells", tc.g.Name, got, err, tc.want)
		}
	}
	small := func() Grid {
		return Grid{Name: "s", NDups: []int{1}, PPNs: []int{1}, LaunchPPN: 4, Protocols: []Params{{}}}
	}
	k := Kernel{Op: "reduce", Bytes: 1 << 20, Nodes: 4}
	for _, tc := range []struct {
		name string
		edit func(*Grid, *Kernel)
		ok   bool
	}{
		{"at every limit", func(g *Grid, k *Kernel) {
			k.Bytes, k.Nodes = maxBytes, maxRanks/4
			g.NDups, g.Protocols = []int{maxNDup}, []Params{{ChunkBytes: minChunkBytes}}
		}, true},
		{"bytes", func(g *Grid, k *Kernel) { k.Bytes = maxBytes + 1 }, false},
		{"ranks", func(g *Grid, k *Kernel) { k.Nodes = maxRanks/4 + 1 }, false},
		{"ndup", func(g *Grid, k *Kernel) { g.NDups = []int{maxNDup + 1} }, false},
		{"zero ndup", func(g *Grid, k *Kernel) { g.NDups = []int{0} }, false},
		{"chunk", func(g *Grid, k *Kernel) { g.Protocols = []Params{{ChunkBytes: minChunkBytes - 1}} }, false},
		{"cells", func(g *Grid, k *Kernel) {
			g.NDups = make([]int, maxCells+1) // 8193 copies of N_DUP 1
			for i := range g.NDups {
				g.NDups[i] = 1
			}
		}, false},
	} {
		g, kk := small(), k
		tc.edit(&g, &kk)
		_, err := (Options{Grid: g, Kernels: []Kernel{kk}}).Plan()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Plan error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// Search runs Plan first: an over-limit search measures nothing.
	_, err := Search(Options{Grid: small(), Kernels: []Kernel{{Op: "reduce", Bytes: 1 << 20, Nodes: 100000}},
		OnCell: func(string, Cell, int, int) { t.Error("over-limit search measured a cell") }})
	if err == nil {
		t.Error("Search accepted a 100000-node kernel")
	}
}

// cellsOf lists the grid's cells for a kernel of operation op.
func cellsOf(g Grid, op string) []Params {
	var out []Params
	g.walk(op, maxCells, func(p Params) { out = append(out, p) })
	return out
}

func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// MustLanes is a test shorthand for the agent-lane demand of a progress label.
func MustLanes(label string) int { return progress.MustParse(label).LanesNeeded() }
