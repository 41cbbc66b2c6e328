package bench

import (
	"fmt"
	"testing"

	"commoverlap/internal/core"
	"commoverlap/internal/job"
	"commoverlap/internal/mpi"
	"commoverlap/internal/simnet"
	"commoverlap/internal/sparse"
)

// TestKernelTimingsPinned pins one cell of each kernel family — the 3D
// kernel at PPN > 1, once with broadcasts wider than its reductions, the
// 2.5D kernel, 2D SUMMA and sparse SUMMA — bit for bit: the slowest rank's time and GEMM time, and the run's wire volume.
// Communicator creation costs no virtual time, but every Split is a
// rendezvous whose wake order the timed region inherits, so one added or
// reordered Dup in an environment constructor moves these numbers (the
// 16x16x2 PPN-8 2.5D cell is the sensitive one) while every shape test
// still passes.
func TestKernelTimingsPinned(t *testing.T) {
	const n = 2000
	// oneNode runs a 2D-mesh body on q*q single-rank nodes and folds the
	// slowest rank like the kernel experiments do.
	oneNode := func(q int, body func(*mpi.Proc) (core.Result, error)) (KernelRun, error) {
		var out KernelRun
		var bodyErr error
		w, err := job.Run(job.Spec{Config: simnet.DefaultConfig(q * q), Ranks: q * q}, func(pr *mpi.Proc) {
			res, err := body(pr)
			if err != nil {
				bodyErr = err
				return
			}
			accumulate(&out, res)
		})
		if bodyErr != nil {
			return out, bodyErr
		}
		if err != nil {
			return out, err
		}
		out.Volume = w.Net.TotalWireBytes()
		return out, nil
	}
	cases := []struct {
		name string
		run  func() (KernelRun, error)
		want string
	}{
		{"3D 6x6x6 PPN 4 N_DUP 4", func() (KernelRun, error) {
			return kernel(Options{}, core.Optimized, n, 6, 4, 4)
		}, "time=0.0034064043900744389 gemm=0.00038215081025641019 volume=789318448"},
		{"3D 4x4x4 PPN 2 N_DUP 2 NDupAB 4", func() (KernelRun, error) {
			return kernelCfg(Options{}, core.Optimized, 4, core.Config{N: n, NDup: 2, NDupAB: 4, PPN: 2})
		}, "time=0.0057451274238764704 gemm=0.00064102564102564113 volume=596000000"},
		{"2.5D 16x16x2 PPN 8 N_DUP 1", func() (KernelRun, error) {
			return kernel25(Options{}, 16, 2, n, 1, 8)
		}, "time=0.0034599531014612582 gemm=0.00032051282051282008 volume=1320000000"},
		{"2D SUMMA 8x8 N_DUP 4", func() (KernelRun, error) {
			return oneNode(8, func(pr *mpi.Proc) (core.Result, error) {
				env, err := core.NewEnv2D(pr, 8, core.Config{N: n, NDup: 4})
				if err != nil {
					return core.Result{}, err
				}
				env.M.World.Barrier()
				return env.SymmSquareCube2D(nil, true), nil
			})
		}, "time=0.0059112545901847044 gemm=0.00032051282051281959 volume=1087987712"},
		{"sparse 4x4 halfBW 32 N_DUP 2", func() (KernelRun, error) {
			h := sparse.BandedHamiltonian(n, 32, 32.0/3)
			return oneNode(4, func(pr *mpi.Proc) (core.Result, error) {
				env, err := core.NewSpEnv(pr, 4, n, 2, 1, 0)
				if err != nil {
					return core.Result{}, err
				}
				blk := spBlockOf(h, 4, env.M.I, env.M.J)
				env.M.World.Barrier()
				res := env.SymmSquareCubeSparse(blk, true)
				return core.Result{Time: res.Time, GemmTime: res.GemmTime}, nil
			})
		}, "time=0.0020253930861317917 gemm=0.0001517999999999999 volume=41491456"},
	}
	for _, c := range cases {
		kr, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := fmt.Sprintf("time=%.17g gemm=%.17g volume=%d", kr.Time, kr.GemmTime, kr.Volume)
		if got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
