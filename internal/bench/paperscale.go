package bench

import (
	"fmt"
	"io"

	"commoverlap/internal/cache"
	"commoverlap/internal/core"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/progress"
	"commoverlap/internal/purify"
	"commoverlap/internal/tune"
)

// The paper-scale experiment: the evaluation rerun at the machine sizes the
// paper actually used rather than the 4-node micro-benchmark scale. Two
// parts:
//
//  1. the Fig. 5 collective micro-benchmark on 64 nodes — the size of the
//     paper's production runs — showing the overlap cases still beat the
//     blocking collective when the reduction tree is six levels deep;
//  2. kernel and application strong scaling on p^3 nodes for p in {4,5,6}
//     (64, 125 and 216 nodes): SymmSquareCube baseline vs overlapped, plus
//     a purification application run (the paper's Table I methodology) at
//     every scale.
//
// Sequentially this sweep costs more than the rest of the evaluation
// combined; the replica pool is what makes it routine — all 12 jobs are
// independent replicas, fanned across the pool like any other experiment.

// PaperScaleNodes is the collective micro-benchmark's node count.
const PaperScaleNodes = 64

// paperScaleSize is the collective payload, in the large-message regime
// where overlap pays.
const paperScaleSize int64 = 16 << 20

// paperScaleMeshes are the strong-scaling mesh edges (p^3 nodes each).
var paperScaleMeshes = []int{4, 5, 6}

// paperScaleIters is the purification iteration budget per scale — enough
// to average the kernel over a real application loop without dominating the
// sweep (the simulator is deterministic, so more iterations only tighten an
// already-exact average).
const paperScaleIters = 2

// PaperScaleRow is one mesh size of the strong-scaling part.
type PaperScaleRow struct {
	MeshEdge     int
	Ranks        int     // = nodes: one rank per node
	KernelND1    float64 // baseline-equivalent optimized kernel, TFlops
	KernelND4    float64 // overlapped kernel (N_DUP=4), TFlops
	PurifyTFlops float64 // application-averaged overlapped kernel, TFlops
	PurifyIters  int
}

// PaperScaleResult holds both parts of the experiment, plus the optional
// table-driven rows PaperScaleTuned fills in.
type PaperScaleResult struct {
	CollNodes int
	CollSize  int64
	CollBW    [3]float64 // MB/s per CollCase, reduce op
	Rows      []PaperScaleRow

	// Tuned rows (only when run via PaperScaleTuned): the 64-node reduction
	// at the tuning table's winner, and the optimized kernel with per-phase
	// tuned pipeline widths at every mesh edge.
	TunedCollBW  float64     // MB/s
	TunedParams  tune.Params // the collective winner
	TunedKernel  []float64   // TFlops per paperScaleMeshes entry
	TunedApplied bool
}

// PaperScale runs the 64-node collective micro-benchmark and the
// 64..216-node strong-scaling sweep at dimension n (default 1hsg_70).
func PaperScale(w io.Writer, o Options) (PaperScaleResult, error) {
	n := o.n()
	ne := Systems[2].Ne
	res := PaperScaleResult{CollNodes: PaperScaleNodes, CollSize: paperScaleSize}

	// Cases 0..2: the three collective cases on 64 nodes. Cases 3..: per
	// mesh edge, the N_DUP=1 kernel, the N_DUP=4 kernel, and the
	// purification application run.
	const perMesh = 3
	cells, err := parcases(o, 3+len(paperScaleMeshes)*perMesh, func(i int) (float64, error) {
		if i < 3 {
			bw, _, err := collectiveRun(o, "reduce", CollCase(i), paperScaleSize, PaperScaleNodes)
			return bw, err
		}
		p := paperScaleMeshes[(i-3)/perMesh]
		switch (i - 3) % perMesh {
		case 0:
			kr, err := kernel(o, core.Optimized, n, p, 1, 1)
			return kr.TFlops, err
		case 1:
			kr, err := kernel(o, core.Optimized, n, p, 4, 1)
			return kr.TFlops, err
		default:
			return purifyTFlops(o, n, ne, p, 4, paperScaleIters)
		}
	})
	if err != nil {
		return res, err
	}

	fprintf(w, "Paper scale: %d-node collectives and strong scaling to %d nodes (N=%d)\n",
		PaperScaleNodes, cube(paperScaleMeshes[len(paperScaleMeshes)-1]), n)
	fprintf(w, "\nReduce bandwidth at %d B on %d nodes:\n", paperScaleSize, PaperScaleNodes)
	for c := Blocking; c <= MultiPPNOverlap; c++ {
		res.CollBW[c] = cells[int(c)] / 1e6
		fprintf(w, "  %-28s %8.0f MB/s\n", c, res.CollBW[c])
	}

	fprintf(w, "\nKernel and application strong scaling (one rank per node):\n")
	fprintf(w, "%6s %6s %10s %10s %12s\n", "mesh", "nodes", "N_DUP=1", "N_DUP=4", "purify ND4")
	for pi, p := range paperScaleMeshes {
		base := 3 + pi*perMesh
		row := PaperScaleRow{
			MeshEdge:     p,
			Ranks:        cube(p),
			KernelND1:    cells[base],
			KernelND4:    cells[base+1],
			PurifyTFlops: cells[base+2],
			PurifyIters:  paperScaleIters,
		}
		res.Rows = append(res.Rows, row)
		fprintf(w, "%3dx%dx%d %6d %10.2f %10.2f %12.2f\n",
			p, p, p, row.Ranks, row.KernelND1, row.KernelND4, row.PurifyTFlops)
	}
	fprintf(w, "\nPurify ND4 = optimized kernel averaged over %d purification iterations\n", paperScaleIters)
	fprintf(w, "(the paper's Table I methodology) — it matches the single-shot N_DUP=4\ncolumn, confirming the overlap win survives inside the application loop.\n")
	return res, nil
}

// PaperScaleTuned is PaperScale with the tuning table applied: after the
// fixed-parameter sweep it measures the 64-node reduction at the table's
// per-kernel winner (through a store seeded from the table, so a cell the
// table holds is read) and the optimized kernel with tuned per-phase
// pipeline widths (tune.Table.KernelConfig) at every mesh edge.
func PaperScaleTuned(w io.Writer, o Options, table *tune.Table) (PaperScaleResult, error) {
	res, err := PaperScale(w, o)
	if err != nil {
		return res, err
	}
	n := o.n()
	want := tune.Kernel{Op: "reduce", Bytes: paperScaleSize, Nodes: PaperScaleNodes}
	entry := table.Lookup(want)
	if entry == nil {
		entry = table.Nearest(want.Op, want.Bytes, want.Nodes, want.Topo)
	}
	if entry == nil {
		return res, fmt.Errorf("bench: tuning table has no reduce entries")
	}
	store := cache.New(0)
	table.Seed(store)
	cells, err := parcases(o, 1+len(paperScaleMeshes), func(i int) (float64, error) {
		if i == 0 {
			bw, _, err := tune.MeasureCached(store, want, entry.Best, table.Grid.LaunchPPN)
			return bw, err
		}
		p := paperScaleMeshes[i-1]
		tc, err := table.KernelConfig(core.Config{N: n, NDup: 4}, p, cube(p))
		if err != nil {
			return 0, err
		}
		// The strong-scaling rows run one rank per node; the tuned PPN
		// applies to the collective workload, so here only the per-phase
		// widths carry over.
		tc.Config.PPN = 1
		kr, err := kernelCfg(o, core.Optimized, p, tc.Config)
		return kr.TFlops, err
	})
	if err != nil {
		return res, err
	}
	res.TunedCollBW = cells[0] / 1e6
	res.TunedParams = entry.Best
	res.TunedKernel = cells[1:]
	res.TunedApplied = true

	fprintf(w, "\nTuning table applied (%s grid):\n", table.Grid.Name)
	fprintf(w, "  %d-node reduce, tuned ndup=%d ppn=%d: %8.0f MB/s (blocking %8.0f, fixed 4-PPN %8.0f)\n",
		PaperScaleNodes, entry.Best.NDup, entry.Best.PPN,
		res.TunedCollBW, res.CollBW[Blocking], res.CollBW[MultiPPNOverlap])
	fprintf(w, "  kernel with per-phase tuned widths (TFlops):\n")
	for pi, p := range paperScaleMeshes {
		fprintf(w, "    %dx%dx%d %10.2f (fixed N_DUP=4: %8.2f)\n",
			p, p, p, res.TunedKernel[pi], res.Rows[pi].KernelND4)
	}
	return res, nil
}

// purifyTFlops runs a phantom purification (the Table I methodology) on a
// p^3 mesh and returns the application-averaged kernel TFlops.
func purifyTFlops(o Options, n, ne, p, ndup, iters int) (float64, error) {
	dims := mesh.Cubic(p)
	var kernelTime float64
	_, err := job(o, dims.Size(), dims.Size(), nil, progress.Spec{}, func(pr *mpi.Proc) {
		env, err := core.NewEnv(pr, dims, core.Config{N: n, NDup: ndup})
		if err != nil {
			panic(err)
		}
		dd := purify.NewDist(env, core.Optimized)
		_, st, err := dd.Run(nil, purify.Options{Ne: max(ne, 1), MaxIter: iters})
		if err != nil {
			panic(err)
		}
		if st.KernelTime > kernelTime {
			kernelTime = st.KernelTime
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(iters) * core.KernelFlops(n) / kernelTime / 1e12, nil
}

func cube(p int) int { return p * p * p }
