package bench

import (
	"fmt"
	"io"

	"commoverlap/internal/core"
)

// table1MeshEdge: Tables I and II run on 64 nodes with one process per
// node, i.e. a 4x4x4 mesh (p^3 = 64).
const table1MeshEdge = 4

// Table1Row is one system's row of Table I.
type Table1Row struct {
	System  System
	TFlops  [3]float64 // Original, Baseline, Optimized(N_DUP=4)
	Speedup float64    // Optimized over Baseline
	// WireUtil is each variant's mean egress-wire busy fraction — the
	// overlap mechanism should show up as the optimized kernel driving the
	// wires harder over its (shorter) run.
	WireUtil [3]float64
}

// Table1 reproduces Table I: performance of the three SymmSquareCube
// variants on the 4x4x4 mesh with N_DUP = 4 for the optimized algorithm.
func Table1(w io.Writer, o Options, systems []System) ([]Table1Row, error) {
	fprintf(w, "Table I: SymmSquareCube performance (TFlops), %d^3 mesh, PPN=1\n", table1MeshEdge)
	fprintf(w, "%-10s %-6s %8s %8s %8s %14s %20s\n",
		"system", "N", "alg3", "alg4", "alg5", "alg5/alg4", "wire% a3/a4/a5")
	variants := []core.Variant{core.Original, core.Baseline, core.Optimized}
	cells, err := parcases(o, len(systems)*len(variants), func(i int) (KernelRun, error) {
		v := variants[i%len(variants)]
		ndup := 1
		if v == core.Optimized {
			ndup = 4
		}
		return kernel(o, v, systems[i/len(variants)].N, table1MeshEdge, ndup, 1)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(systems))
	for si, sys := range systems {
		var row Table1Row
		row.System = sys
		for vi := range variants {
			kr := cells[si*len(variants)+vi]
			row.TFlops[vi] = kr.TFlops
			row.WireUtil[vi] = kr.WireUtil
		}
		row.Speedup = row.TFlops[2] / row.TFlops[1]
		rows = append(rows, row)
		fprintf(w, "%-10s %-6d %8.2f %8.2f %8.2f %14.2f %6.1f/%5.1f/%5.1f\n",
			sys.Name, sys.N, row.TFlops[0], row.TFlops[1], row.TFlops[2], row.Speedup,
			100*row.WireUtil[0], 100*row.WireUtil[1], 100*row.WireUtil[2])
	}
	return rows, nil
}

// Table2Row is one system's row of Table II.
type Table2Row struct {
	System System
	TFlops []float64 // indexed by N_DUP-1
}

// Table2NDups is the paper's N_DUP axis.
var Table2NDups = []int{1, 2, 3, 4, 5, 6}

// Table2 reproduces Table II: optimized-kernel performance for N_DUP 1..6
// (N_DUP = 1 equals the baseline algorithm).
func Table2(w io.Writer, o Options, systems []System) ([]Table2Row, error) {
	fprintf(w, "Table II: optimized SymmSquareCube (TFlops) vs N_DUP, %d^3 mesh\n", table1MeshEdge)
	fprintf(w, "%-10s", "system")
	for _, nd := range Table2NDups {
		fprintf(w, " %7s%d", "N_DUP=", nd)
	}
	fprintf(w, "\n")
	nd := len(Table2NDups)
	cells, err := parcases(o, len(systems)*nd, func(i int) (KernelRun, error) {
		return kernel(o, core.Optimized, systems[i/nd].N, table1MeshEdge, Table2NDups[i%nd], 1)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, 0, len(systems))
	for si, sys := range systems {
		row := Table2Row{System: sys}
		fprintf(w, "%-10s", sys.Name)
		for j := range Table2NDups {
			kr := cells[si*nd+j]
			row.TFlops = append(row.TFlops, kr.TFlops)
			fprintf(w, " %8.2f", kr.TFlops)
		}
		rows = append(rows, row)
		fprintf(w, "\n")
	}
	return rows, nil
}

// Table3Config is one process configuration of Table III: PPN processes
// per node arranged as a Mesh^3 cube (the paper chooses the largest cube
// that fits on 64 nodes at that PPN).
type Table3Config struct {
	PPN, Mesh int
}

// Table3Configs are the paper's five configurations.
var Table3Configs = []Table3Config{
	{PPN: 1, Mesh: 4}, {PPN: 2, Mesh: 5}, {PPN: 4, Mesh: 6}, {PPN: 6, Mesh: 7}, {PPN: 8, Mesh: 8},
}

// Table3Row is one row of Table III.
type Table3Row struct {
	Config     Table3Config
	TotalNodes int
	TFlopsND1  float64
	TFlopsND4  float64
}

// Table3 reproduces Table III: the optimized kernel with N_DUP in {1, 4}
// across PPN configurations (the multiple-PPN overlap technique, alone and
// combined with nonblocking overlap), for the 1hsg_70 system.
func Table3(w io.Writer, o Options) ([]Table3Row, error) {
	n := o.n()
	fprintf(w, "Table III: optimized SymmSquareCube vs PPN (N=%d)\n", n)
	fprintf(w, "%4s %-10s %11s %10s %10s\n", "PPN", "mesh", "total nodes", "N_DUP=1", "N_DUP=4")
	cells, err := parcases(o, len(Table3Configs)*2, func(i int) (KernelRun, error) {
		cfg := Table3Configs[i/2]
		ndup := 1
		if i%2 == 1 {
			ndup = 4
		}
		return kernel(o, core.Optimized, n, cfg.Mesh, ndup, cfg.PPN)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, 0, len(Table3Configs))
	for ci, cfg := range Table3Configs {
		kr1, kr4 := cells[2*ci], cells[2*ci+1]
		row := Table3Row{Config: cfg, TotalNodes: kr1.Nodes, TFlopsND1: kr1.TFlops, TFlopsND4: kr4.TFlops}
		rows = append(rows, row)
		fprintf(w, "%4d %-12s %11d %10.2f %10.2f\n",
			cfg.PPN, fmt.Sprintf("%dx%dx%d", cfg.Mesh, cfg.Mesh, cfg.Mesh),
			row.TotalNodes, row.TFlopsND1, row.TFlopsND4)
	}
	return rows, nil
}

// Table5Config is one 2.5D process configuration of Table V.
type Table5Config struct {
	PPN, Q, C int
}

// Table5Configs are the paper's eleven 2.5D configurations.
var Table5Configs = []Table5Config{
	{2, 8, 2}, {5, 12, 2}, {8, 16, 2},
	{4, 9, 3}, {7, 12, 3},
	{1, 4, 4}, {4, 8, 4},
	{2, 5, 5}, {4, 6, 6}, {6, 7, 7}, {8, 8, 8},
}

// Table5Row is one row of Table V.
type Table5Row struct {
	Config     Table5Config
	TotalNodes int
	TFlopsND1  float64
	TFlopsND4  float64
}

// Table5 reproduces Table V: SymmSquareCube built on 2.5D matrix
// multiplication with Cannon's algorithm, with and without nonblocking
// overlap, for the 1hsg_70 system.
func Table5(w io.Writer, o Options) ([]Table5Row, error) {
	n := o.n()
	fprintf(w, "Table V: 2.5D SymmSquareCube vs mesh/replication/PPN (N=%d)\n", n)
	fprintf(w, "%4s %-12s %11s %10s %10s\n", "PPN", "mesh(qxqxc)", "total nodes", "N_DUP=1", "N_DUP=4")
	cells, err := parcases(o, len(Table5Configs)*2, func(i int) (KernelRun, error) {
		cfg := Table5Configs[i/2]
		ndup := 1
		if i%2 == 1 {
			ndup = 4
		}
		return kernel25(o, cfg.Q, cfg.C, n, ndup, cfg.PPN)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table5Row, 0, len(Table5Configs))
	for ci, cfg := range Table5Configs {
		kr1, kr4 := cells[2*ci], cells[2*ci+1]
		row := Table5Row{Config: cfg, TotalNodes: kr1.Nodes, TFlopsND1: kr1.TFlops, TFlopsND4: kr4.TFlops}
		rows = append(rows, row)
		fprintf(w, "%4d %-12s %11d %10.2f %10.2f\n",
			cfg.PPN, fmt.Sprintf("%dx%dx%d", cfg.Q, cfg.Q, cfg.C),
			row.TotalNodes, row.TFlopsND1, row.TFlopsND4)
	}
	return rows, nil
}
