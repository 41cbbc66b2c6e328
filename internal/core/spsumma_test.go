package core

import (
	"sync"
	"testing"

	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/sparse"
)

// spBlock extracts the (i,j) block of a CSR matrix via dense (test sizes
// are small).
func spBlock(h *sparse.CSR, q, i, j int) *sparse.CSR {
	d := h.ToDense()
	return sparse.FromDense(mat.BlockView(d, q, i, j).Clone(), 0)
}

func checkSparse(t *testing.T, q, n, hb, ndup int, pipelined bool) {
	t.Helper()
	h := sparse.BandedHamiltonian(n, hb, 4)
	wantD2, wantD3 := oracle(h.ToDense())

	dims := mesh.Dims{Q: q, C: 1}
	var mu sync.Mutex
	gotD2, gotD3 := mat.New(n, n), mat.New(n, n)
	runKernelJob(t, dims, 4, nil, func(pr *mpi.Proc) {
		env, err := NewSpEnv(pr, q, n, ndup, 1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		blk := spBlock(h, q, env.M.I, env.M.J)
		res := env.SymmSquareCubeSparse(blk, pipelined)
		mu.Lock()
		mat.BlockView(gotD2, q, env.M.I, env.M.J).CopyFrom(res.D2.ToDense())
		mat.BlockView(gotD3, q, env.M.I, env.M.J).CopyFrom(res.D3.ToDense())
		mu.Unlock()
		if res.Time <= 0 {
			t.Errorf("rank %d: no time recorded (%+v)", pr.Rank(), res)
		}
		// Far off-band blocks are legitimately empty; the diagonal never is.
		if env.M.I == env.M.J && res.D3.NNZ() == 0 {
			t.Errorf("rank %d: empty diagonal D3 block", pr.Rank())
		}
	})
	tol := 1e-10 * float64(n)
	if diff := gotD2.MaxAbsDiff(wantD2); diff > tol {
		t.Errorf("sparse q=%d n=%d pipelined=%v: D2 diff %g", q, n, pipelined, diff)
	}
	if diff := gotD3.MaxAbsDiff(wantD3); diff > tol {
		t.Errorf("sparse q=%d n=%d pipelined=%v: D3 diff %g", q, n, pipelined, diff)
	}
}

func TestSparseKernelCorrect(t *testing.T) {
	for _, tc := range []struct {
		q, n, hb, ndup int
		pipelined      bool
	}{
		{1, 8, 2, 1, false},
		{2, 12, 3, 1, false},
		{2, 12, 3, 2, true},
		{3, 18, 4, 1, true},
		{4, 21, 2, 4, true},
	} {
		checkSparse(t, tc.q, tc.n, tc.hb, tc.ndup, tc.pipelined)
	}
}

func TestSparseThresholdBoundsFill(t *testing.T) {
	// With banded input, exact squaring doubles the bandwidth; a threshold
	// keeps the fill bounded (the linear-scaling property).
	const q, n, hb = 2, 40, 3
	h := sparse.BandedHamiltonian(n, hb, 1.0) // fast decay
	dims := mesh.Dims{Q: q, C: 1}
	var exactNNZ, truncNNZ int
	runKernelJob(t, dims, 4, nil, func(pr *mpi.Proc) {
		exact, err := NewSpEnv(pr, q, n, 1, 1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		blk := spBlock(h, q, exact.M.I, exact.M.J)
		r1 := exact.SymmSquareCubeSparse(blk, false)

		trunc, err := NewSpEnv(pr, q, n, 1, 1, 1e-3)
		if err != nil {
			t.Error(err)
			return
		}
		r2 := trunc.SymmSquareCubeSparse(blk, false)
		if pr.Rank() == 0 {
			exactNNZ, truncNNZ = r1.D3.NNZ(), r2.D3.NNZ()
		}
	})
	if truncNNZ >= exactNNZ {
		t.Errorf("threshold did not reduce fill: %d vs %d", truncNNZ, exactNNZ)
	}
	if truncNNZ == 0 {
		t.Error("threshold dropped everything")
	}
}

func TestSparsePipelinedNotSlower(t *testing.T) {
	// At a size where panels are meaningful, the overlapped schedule must
	// not lose to blocking.
	const q, n, hb = 4, 2000, 60
	h := sparse.BandedHamiltonian(n, hb, 8)
	dims := mesh.Dims{Q: q, C: 1}
	measure := func(pipelined bool) float64 {
		var worst float64
		runKernelJob(t, dims, 16, nil, func(pr *mpi.Proc) {
			env, err := NewSpEnv(pr, q, n, 2, 1, 0)
			if err != nil {
				t.Error(err)
				return
			}
			blk := spBlock(h, q, env.M.I, env.M.J)
			env.M.World.Barrier()
			res := env.SymmSquareCubeSparse(blk, pipelined)
			if res.Time > worst {
				worst = res.Time
			}
		})
		return worst
	}
	plain := measure(false)
	pipe := measure(true)
	if pipe > plain*1.05 {
		t.Errorf("pipelined sparse kernel (%g) slower than blocking (%g)", pipe, plain)
	}
}
