package core

import (
	"math/rand"
	"sync"
	"testing"

	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

// runKernelJob launches a p x p x p mesh job, runs body on every rank, and
// fails the test on simulation deadlock.
func runKernelJob(t *testing.T, dims mesh.Dims, nodes int, placement []int, body func(p *mpi.Proc)) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := simnet.New(eng, simnet.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(net, dims.Size(), placement)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(body)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// oracle computes D² and D³ serially.
func oracle(d *mat.Matrix) (d2, d3 *mat.Matrix) {
	n := d.Rows
	d2, d3 = mat.New(n, n), mat.New(n, n)
	mat.Gemm(1, d, d, 0, d2)
	mat.Gemm(1, d, d2, 0, d3)
	return d2, d3
}

// checkVariant runs one kernel variant on a pxpxp mesh with real arithmetic
// and compares plane-0 blocks against the serial oracle. ndupAB is the
// optimized kernel's broadcast width (Config.NDupAB; 0 means ndup).
func checkVariant(t *testing.T, v Variant, p, n, ndup, ndupAB int) {
	t.Helper()
	dims := mesh.Cubic(p)
	rng := rand.New(rand.NewSource(int64(100*p + n + ndup)))
	d := mat.RandSymmetric(n, rng)
	wantD2, wantD3 := oracle(d)

	var mu sync.Mutex
	gotD2, gotD3 := mat.New(n, n), mat.New(n, n)
	runKernelJob(t, dims, 4, nil, func(pr *mpi.Proc) {
		env, err := NewEnv(pr, dims, Config{N: n, NDup: ndup, NDupAB: ndupAB, Real: true})
		if err != nil {
			t.Error(err)
			return
		}
		var dblk *mat.Matrix
		if env.M.K == 0 {
			dblk = mat.BlockView(d, p, env.M.I, env.M.J).Clone()
		}
		res := env.SymmSquareCube(v, dblk)
		if env.M.K == 0 {
			if res.D2 == nil || res.D3 == nil {
				t.Errorf("rank %d on plane 0 got nil results", pr.Rank())
				return
			}
			mu.Lock()
			mat.BlockView(gotD2, p, env.M.I, env.M.J).CopyFrom(res.D2)
			mat.BlockView(gotD3, p, env.M.I, env.M.J).CopyFrom(res.D3)
			mu.Unlock()
		} else if res.D2 != nil || res.D3 != nil {
			t.Errorf("rank %d off plane 0 got non-nil results", pr.Rank())
		}
		if res.Time <= 0 {
			t.Errorf("rank %d reported non-positive kernel time %g", pr.Rank(), res.Time)
		}
	})
	tol := 1e-10 * float64(n)
	if diff := gotD2.MaxAbsDiff(wantD2); diff > tol {
		t.Errorf("%v p=%d n=%d ndup=%d ndupAB=%d: D2 max diff %g", v, p, n, ndup, ndupAB, diff)
	}
	if diff := gotD3.MaxAbsDiff(wantD3); diff > tol {
		t.Errorf("%v p=%d n=%d ndup=%d ndupAB=%d: D3 max diff %g", v, p, n, ndup, ndupAB, diff)
	}
}

func TestOriginalCorrect(t *testing.T) {
	for _, pc := range []struct{ p, n int }{{1, 5}, {2, 8}, {2, 13}, {3, 20}, {4, 30}} {
		checkVariant(t, Original, pc.p, pc.n, 1, 0)
	}
}

func TestBaselineCorrect(t *testing.T) {
	for _, pc := range []struct{ p, n int }{{1, 5}, {2, 8}, {2, 13}, {3, 20}, {4, 30}} {
		checkVariant(t, Baseline, pc.p, pc.n, 1, 0)
	}
}

func TestOptimizedCorrectAcrossNDup(t *testing.T) {
	for _, pc := range []struct{ p, n, ndup int }{
		{1, 6, 2}, {2, 12, 1}, {2, 12, 2}, {2, 12, 3}, {2, 13, 4},
		{3, 21, 2}, {3, 20, 4}, {4, 30, 3},
	} {
		checkVariant(t, Optimized, pc.p, pc.n, pc.ndup, 0)
	}
}

func TestOptimizedNDupLargerThanBand(t *testing.T) {
	// NDup larger than the block row count: some bands are empty.
	checkVariant(t, Optimized, 2, 6, 5, 0)
}

// TestOptimizedNDupABCorrect: A and B broadcasts wider than, narrower than
// and as wide as every later phase all match the oracle.
func TestOptimizedNDupABCorrect(t *testing.T) {
	for _, tc := range []struct{ p, n, ndup, ndupAB int }{
		{2, 12, 2, 4}, // above
		{2, 13, 1, 3}, // above, with the reductions unpipelined
		{3, 21, 2, 1}, // below, on a mesh where off-plane roots ship
		{2, 12, 4, 1}, // below
		{3, 20, 3, 3}, // equal, given explicitly
	} {
		checkVariant(t, Optimized, tc.p, tc.n, tc.ndup, tc.ndupAB)
	}
}

func TestPhantomKernelRuns(t *testing.T) {
	// Phantom mode at a larger dimension must complete and take time.
	dims := mesh.Cubic(2)
	var maxT float64
	runKernelJob(t, dims, 4, nil, func(pr *mpi.Proc) {
		env, err := NewEnv(pr, dims, Config{N: 2000, NDup: 4})
		if err != nil {
			t.Error(err)
			return
		}
		res := env.SymmSquareCube(Optimized, nil)
		if res.Time > maxT {
			maxT = res.Time
		}
		if res.GemmTime <= 0 {
			t.Errorf("rank %d: no gemm time charged", pr.Rank())
		}
	})
	if maxT <= 0 {
		t.Fatal("phantom kernel took no virtual time")
	}
}

// TestOptimizedNotSlowerThanBaseline asserts the paper's headline direction
// in the simulator: with NDup=4 the optimized kernel is at least as fast as
// the baseline at a communication-dominated size.
func TestOptimizedNotSlowerThanBaseline(t *testing.T) {
	dims := mesh.Cubic(2)
	measure := func(v Variant, ndup int) float64 {
		var worst float64
		runKernelJob(t, dims, 8, nil, func(pr *mpi.Proc) {
			env, err := NewEnv(pr, dims, Config{N: 4000, NDup: ndup})
			if err != nil {
				t.Error(err)
				return
			}
			env.M.World.Barrier()
			res := env.SymmSquareCube(v, nil)
			if res.Time > worst {
				worst = res.Time
			}
		})
		return worst
	}
	base := measure(Baseline, 1)
	opt := measure(Optimized, 4)
	if opt > base*1.02 {
		t.Errorf("optimized (%g s) slower than baseline (%g s)", opt, base)
	}
}

func TestConfigValidation(t *testing.T) {
	dims := mesh.Cubic(1)
	runKernelJob(t, dims, 1, nil, func(pr *mpi.Proc) {
		if _, err := NewEnv(pr, dims, Config{N: 0, NDup: 1}); err == nil {
			t.Error("N=0 accepted")
		}
		if _, err := NewEnv(pr, dims, Config{N: 4, NDup: 0}); err == nil {
			t.Error("NDup=0 accepted")
		}
	})
}

// TestNDupABValidation: a negative broadcast width is rejected, zero
// defaults to NDup and a positive width is kept.
func TestNDupABValidation(t *testing.T) {
	dims := mesh.Cubic(1)
	runKernelJob(t, dims, 1, nil, func(pr *mpi.Proc) {
		if _, err := NewEnv(pr, dims, Config{N: 4, NDup: 1, NDupAB: -1}); err == nil {
			t.Error("NDupAB=-1 accepted")
		}
		for _, tc := range []struct{ ndupAB, want int }{{0, 3}, {2, 2}} {
			env, err := NewEnv(pr, dims, Config{N: 4, NDup: 3, NDupAB: tc.ndupAB})
			if err != nil {
				t.Errorf("NDupAB=%d: %v", tc.ndupAB, err)
				continue
			}
			if env.Cfg.NDupAB != tc.want {
				t.Errorf("NDupAB=%d: got width %d, want %d", tc.ndupAB, env.Cfg.NDupAB, tc.want)
			}
		}
	})
}

func TestKernelFlops(t *testing.T) {
	if KernelFlops(10) != 4000 {
		t.Errorf("KernelFlops(10) = %g", KernelFlops(10))
	}
}

func TestVariantString(t *testing.T) {
	if Original.String() == "" || Baseline.String() == "" || Optimized.String() == "" {
		t.Error("empty variant names")
	}
	if Variant(99).String() == "" {
		t.Error("unknown variant should still print")
	}
}
