package bench

import (
	"io"

	"commoverlap/internal/core"
	"commoverlap/internal/mat"
	"commoverlap/internal/mpi"
	"commoverlap/internal/sparse"
)

// SparseRow is one bandwidth setting of the sparse-kernel experiment.
type SparseRow struct {
	HalfBW        int
	FillPercent   float64 // nnz(D) / N^2 of the input
	BlockingTime  float64
	PipelinedTime float64
	DenseTime     float64 // dense 2D SUMMA at the same size, for the crossover
}

// Sparse compares the block-sparse SUMMA kernel (blocking vs pipelined
// panel broadcasts) against the dense 2D kernel on a 4x4 mesh as the
// operand bandwidth — and with it the fill — grows. The sparse kernel wins
// while the matrix is genuinely sparse and loses once fill approaches
// dense, the crossover the paper's sparse remark implies.
func Sparse(w io.Writer, o Options) ([]SparseRow, error) {
	n := o.N
	if n == 0 {
		n = 4000
	}
	const q = 4
	fprintf(w, "Sparse SymmSquareCube on a %dx%d mesh (N=%d, virtual seconds)\n", q, q, n)
	fprintf(w, "%8s %8s %12s %12s %12s\n", "halfBW", "fill%", "blocking", "pipelined", "dense2D")
	var rows []SparseRow

	halfBWs := []int{8, 32, 128}
	// Case 0 is the dense reference; cases 1.. are (halfBW, variant) cells.
	// The banded operand is rebuilt per cell: sparse.CSR is read-only during
	// the run but cheap to construct, and sharing one across replicas would
	// be the only cross-cell state.
	cells, err := parcases(o, 1+len(halfBWs)*2, func(i int) (float64, error) {
		if i == 0 {
			kr, err := kernel2D(o, q, n, 2, true)
			return kr.Time, err
		}
		hb := halfBWs[(i-1)/2]
		pipelined := (i-1)%2 == 1
		h := sparse.BandedHamiltonian(n, hb, float64(hb)/3)
		kr, err := o.kernelCell(naturalSpec(q*q, 1), n, func(pr *mpi.Proc) (core.Result, error) {
			env, err := core.NewSpEnv(pr, q, n, 2, 1, 0)
			if err != nil {
				return core.Result{}, err
			}
			blk := spBlockOf(h, q, env.M.I, env.M.J)
			env.M.World.Barrier()
			res := env.SymmSquareCubeSparse(blk, pipelined)
			return core.Result{Time: res.Time, GemmTime: res.GemmTime}, nil
		})
		return kr.Time, err
	})
	if err != nil {
		return nil, err
	}
	denseTime := cells[0]
	for hi, hb := range halfBWs {
		h := sparse.BandedHamiltonian(n, hb, float64(hb)/3)
		fill := 100 * float64(h.NNZ()) / (float64(n) * float64(n))
		row := SparseRow{HalfBW: hb, FillPercent: fill,
			BlockingTime: cells[1+2*hi], PipelinedTime: cells[2+2*hi], DenseTime: denseTime}
		rows = append(rows, row)
		fprintf(w, "%8d %8.2f %10.4fs %10.4fs %10.4fs\n",
			hb, fill, row.BlockingTime, row.PipelinedTime, row.DenseTime)
	}
	return rows, nil
}

// spBlockOf extracts block (i,j) of h under the q x q BlockDim partition
// directly from CSR storage (no dense intermediate).
func spBlockOf(h *sparse.CSR, q, i, j int) *sparse.CSR {
	rows, cols := mat.BlockDim{N: h.Rows, P: q}, mat.BlockDim{N: h.Cols, P: q}
	r0, c0 := rows.Offset(i), cols.Offset(j)
	r1, c1 := r0+rows.Count(i), c0+cols.Count(j)
	out := sparse.NewEmpty(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		for k := h.RowPtr[r]; k < h.RowPtr[r+1]; k++ {
			c := h.ColIdx[k]
			if c >= c0 && c < c1 {
				out.ColIdx = append(out.ColIdx, c-c0)
				out.Val = append(out.Val, h.Val[k])
			}
		}
		out.RowPtr[r-r0+1] = len(out.ColIdx)
	}
	return out
}
