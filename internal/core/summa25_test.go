package core

import (
	"math/rand"
	"sync"
	"testing"

	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
)

// check25 runs the 2.5D kernel on a q x q x c mesh with real arithmetic and
// compares plane-0 blocks against the serial oracle.
func check25(t *testing.T, q, c, n, ndup int) {
	t.Helper()
	dims := mesh.Dims{Q: q, C: c}
	rng := rand.New(rand.NewSource(int64(q*100 + c*10 + n + ndup)))
	d := mat.RandSymmetric(n, rng)
	wantD2, wantD3 := oracle(d)

	var mu sync.Mutex
	gotD2, gotD3 := mat.New(n, n), mat.New(n, n)
	runKernelJob(t, dims, 4, nil, func(pr *mpi.Proc) {
		env, err := NewEnv25(pr, dims, Config{N: n, NDup: ndup, Real: true})
		if err != nil {
			t.Error(err)
			return
		}
		var dblk *mat.Matrix
		if env.M.K == 0 {
			dblk = mat.BlockView(d, q, env.M.I, env.M.J).Clone()
		}
		res := env.SymmSquareCube25(dblk)
		if env.M.K == 0 {
			mu.Lock()
			mat.BlockView(gotD2, q, env.M.I, env.M.J).CopyFrom(res.D2)
			mat.BlockView(gotD3, q, env.M.I, env.M.J).CopyFrom(res.D3)
			mu.Unlock()
		} else if res.D2 != nil || res.D3 != nil {
			t.Errorf("rank %d off plane 0 got results", pr.Rank())
		}
	})
	tol := 1e-10 * float64(n)
	if diff := gotD2.MaxAbsDiff(wantD2); diff > tol {
		t.Errorf("2.5D q=%d c=%d n=%d ndup=%d: D2 max diff %g", q, c, n, ndup, diff)
	}
	if diff := gotD3.MaxAbsDiff(wantD3); diff > tol {
		t.Errorf("2.5D q=%d c=%d n=%d ndup=%d: D3 max diff %g", q, c, n, ndup, diff)
	}
}

func TestCannon25Correct(t *testing.T) {
	for _, cfg := range []struct{ q, c, n, ndup int }{
		{1, 1, 5, 1},  // trivial mesh
		{2, 1, 8, 1},  // pure Cannon (2D)
		{2, 2, 8, 1},  // 3D-like (one step per plane)
		{2, 2, 9, 2},  // padding + bands
		{3, 3, 12, 1}, // c == q
		{4, 2, 17, 4}, // two planes, two steps each, padding, bands
		{4, 4, 20, 2},
		{4, 1, 10, 1}, // full Cannon on one plane
	} {
		check25(t, cfg.q, cfg.c, cfg.n, cfg.ndup)
	}
}

func TestCannon25RejectsBadMesh(t *testing.T) {
	dims := mesh.Dims{Q: 3, C: 2} // 2 does not divide 3
	runKernelJob(t, dims, 2, nil, func(pr *mpi.Proc) {
		if _, err := NewEnv25(pr, dims, Config{N: 6, NDup: 1}); err == nil {
			t.Error("c=2, q=3 accepted")
		}
	})
	// c = 0 is refused with an error on every rank of a 4-rank job, not a
	// divide-by-zero panic.
	runKernelJob(t, mesh.Dims{Q: 2, C: 1}, 4, nil, func(pr *mpi.Proc) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("rank %d: c=0 panicked: %v", pr.Rank(), r)
			}
		}()
		if _, err := NewEnv25(pr, mesh.Dims{Q: 2, C: 0}, Config{N: 6, NDup: 1}); err == nil {
			t.Errorf("rank %d: c=0 accepted", pr.Rank())
		}
	})
}

func TestCannon25PhantomRuns(t *testing.T) {
	dims := mesh.Dims{Q: 4, C: 2}
	var worst float64
	runKernelJob(t, dims, 8, nil, func(pr *mpi.Proc) {
		env, err := NewEnv25(pr, dims, Config{N: 4000, NDup: 4})
		if err != nil {
			t.Error(err)
			return
		}
		env.M.World.Barrier()
		res := env.SymmSquareCube25(nil)
		if res.Time > worst {
			worst = res.Time
		}
		if res.GemmTime <= 0 {
			t.Errorf("rank %d: no gemm time", pr.Rank())
		}
	})
	if worst <= 0 {
		t.Fatal("2.5D phantom kernel took no time")
	}
}

// The replication factor c trades memory for communication: with more
// planes, each plane does fewer Cannon steps and the shift traffic drops.
// Assert the qualitative direction on equal process counts (16 ranks).
func TestCannon25ReplicationReducesShiftTraffic(t *testing.T) {
	measure := func(q, c int) float64 {
		dims := mesh.Dims{Q: q, C: c}
		var worst float64
		runKernelJob(t, dims, dims.Size(), nil, func(pr *mpi.Proc) {
			env, err := NewEnv25(pr, dims, Config{N: 4000, NDup: 1})
			if err != nil {
				t.Error(err)
				return
			}
			env.M.World.Barrier()
			res := env.SymmSquareCube25(nil)
			if res.Time > worst {
				worst = res.Time
			}
		})
		return worst
	}
	t4x1 := measure(4, 1) // 16 ranks, pure 2D Cannon (4 steps)
	t4x2 := measure(4, 2) // 32 ranks, replication 2 (2 steps per plane)
	if t4x1 <= 0 || t4x2 <= 0 {
		t.Fatal("no time measured")
	}
	// Replication halves the Cannon shift rounds on each plane at the cost
	// of the grid collectives; it must not be wildly slower.
	if t4x2 > 10*t4x1 {
		t.Errorf("c=2 (%g) wildly slower than c=1 (%g)", t4x2, t4x1)
	}
}
