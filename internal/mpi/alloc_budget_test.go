package mpi

import (
	"runtime"
	"testing"

	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

// Allocation budgets for the collective hot path. Each case runs
// back-to-back collectives in ONE world (steady state: request, envelope,
// transfer and scratch freelists are warm after the first iterations) and
// asserts the steady-state allocs/op stays under a budget. The budgets are
// deliberately loose relative to the measured numbers (the 64-rank 1 MB
// allreduce measures 0 allocs/op; the budget is 64) so they catch a
// reintroduced per-chunk or per-request allocation — the failure mode is
// thousands of allocs/op, not a drift of five — without flaking on
// incidental runtime noise.
//
// Run under -race in CI these double as a pool-isolation proof: every
// freelist hangs off a World, Net or Engine, so concurrent replicas recycling
// buffers at full tilt would trip the detector if any pool were shared.

// allocBudget measures the steady-state allocs per iteration of body, run
// by every rank of a size-rank world on nodes nodes; cfg, when non-nil,
// configures the world before launch.
func allocBudget(t *testing.T, size, nodes int, cfg func(w *World), body func(p *Proc)) float64 {
	t.Helper()
	return steadyAllocs(t, size, nodes, cfg, func(p *Proc) func() {
		return func() { body(p) }
	})
}

// steadyAllocs runs a fresh world for allocItersShort and then for
// allocItersLong iterations of the per-rank body that setup returns, and
// divides the difference in heap allocations by the difference in
// iterations. World setup, per-rank setup and the warm-up iterations that
// fill the freelists are the same in both runs and cancel, so the result is
// the allocs of one steady-state iteration. A first, unmeasured run leaves
// the runtime's own caches (goroutine descriptors among them) as warm for
// the short run as for the long one.
func steadyAllocs(t *testing.T, size, nodes int, cfg func(w *World), setup func(p *Proc) func()) float64 {
	t.Helper()
	mallocs := func(iters int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng := sim.NewEngine()
		net, err := simnet.New(eng, simnet.DefaultConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(net, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cfg != nil {
			cfg(w)
		}
		w.Launch(func(p *Proc) {
			body := setup(p)
			for i := 0; i < iters; i++ {
				body()
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(allocItersShort)
	short := mallocs(allocItersShort)
	long := mallocs(allocItersLong)
	if long < short {
		return 0
	}
	// Integer division truncates, as testing's AllocsPerOp does.
	return float64((long - short) / (allocItersLong - allocItersShort))
}

// TestAllocBudgetFreshObjects pins what a request and a transfer cost when
// no freelist has one to recycle. A request is one object with its
// completion gate inside it. A transfer is five: the object, holding both
// halves' step Procs, its two bound step functions and the chunk feed's two
// slices. The open-request table and the engine's same-time lane and live
// set also grow, a few times over all the runs, which the truncating
// average leaves out.
func TestAllocBudgetFreshObjects(t *testing.T) {
	_, w := buildWorld(t, 2, 2)
	req := testing.AllocsPerRun(100, func() { w.newRequest(nil, "isend", 0, 0) })
	src, dst := w.ranks[0].ep, w.ranks[1].ep
	xfer := testing.AllocsPerRun(100, func() { w.Net.TransferFn(src, dst, 4096, nil, nil, nil, nil) })
	if req > 1 || xfer > 5 {
		t.Errorf("fresh request %.0f allocs, fresh transfer %.0f: budgets 1 and 5", req, xfer)
	}
	t.Logf("fresh request: %.0f allocs; fresh transfer: %.0f", req, xfer)
}

// The iteration counts of steadyAllocs' two runs. The short run already
// covers the warm-up; the difference is the sample the allocs/op is
// averaged over.
const (
	allocItersShort = 8
	allocItersLong  = 40
)

// TestAllocBudgetAllreduceHeadline pins the acceptance-criterion number:
// the 64-rank 1 MB allreduce that measured ~23,464 allocs/op before the
// pooling work must stay within a small budget of its pooled steady state
// (0 allocs/op).
func TestAllocBudgetAllreduceHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need benchmark iterations")
	}
	got := allocBudget(t, 64, 16, nil, func(p *Proc) {
		p.World().Allreduce(Phantom(1<<20), OpSum)
	})
	if budget := float64(64 * raceAllocFactor); got > budget {
		t.Errorf("allreduce 64-rank 1MB: %.0f allocs/op, budget %.0f (was ~23464 before pooling)", got, budget)
	}
	t.Logf("allreduce 64-rank 1MB steady state: %.0f allocs/op", got)
}

// TestAllocBudgetP2PStream pins the eager point-to-point stream — 100
// back-to-back 4 KiB sends between two nodes per op — at zero steady-state
// allocations: envelopes, requests and transfer chunks all recycle.
func TestAllocBudgetP2PStream(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need benchmark iterations")
	}
	got := allocBudget(t, 2, 2, nil, func(p *Proc) {
		c := p.World()
		for m := 0; m < 100; m++ {
			if p.Rank() == 0 {
				c.Send(1, m, Phantom(4096))
			} else {
				c.Recv(0, m, Phantom(4096))
			}
		}
	})
	if budget := float64(0 * raceAllocFactor); got > budget {
		t.Errorf("p2p stream 100 msgs: %.0f allocs/op, budget %.0f", got, budget)
	}
	t.Logf("p2p stream 100 msgs steady state: %.0f allocs/op", got)
}

// reduceBody reduces to root 0; the root supplies a receive buffer (an
// intentional per-op allocation, inside the budget), other ranks pass the
// zero Buffer as the Reduce contract asks.
func reduceBody(p *Proc, d []float64) {
	var recv Buffer
	if p.Rank() == 0 {
		recv = F64(make([]float64, len(d)))
	}
	p.World().Reduce(0, F64(d), recv, OpSum)
}

// TestAllocBudgetAlgorithms sweeps Allreduce across every forcible
// algorithm plus Bcast and Reduce, with real (non-phantom) payloads so the
// scratch-buffer pool is exercised, on a non-power-of-two size so the
// fold/unfold and mixed-radix paths run.
func TestAllocBudgetAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need benchmark iterations")
	}
	const (
		size  = 12
		nodes = 4
		elems = 4096
	)
	cases := []struct {
		name   string
		cfg    func(w *World)
		body   func(p *Proc, data []float64)
		budget float64
	}{
		{"allreduce/ring", func(w *World) { w.AllreduceAlg = AlgRing },
			func(p *Proc, d []float64) { p.World().Allreduce(F64(d), OpSum) }, 128},
		{"allreduce/bruck", func(w *World) { w.AllreduceAlg = AlgBruck },
			func(p *Proc, d []float64) { p.World().Allreduce(F64(d), OpSum) }, 128},
		{"allreduce/shift", func(w *World) { w.AllreduceAlg = AlgShift },
			func(p *Proc, d []float64) { p.World().Allreduce(F64(d), OpSum) }, 128},
		{"allreduce/recdouble", func(w *World) { w.AllreduceAlg = AlgRecDouble },
			func(p *Proc, d []float64) { p.World().Allreduce(F64(d), OpSum) }, 128},
		{"allreduce/rabenseifner", func(w *World) { w.AllreduceAlg = AlgRabenseifner },
			func(p *Proc, d []float64) { p.World().Allreduce(F64(d), OpSum) }, 128},
		{"bcast/binomial", func(w *World) { w.BcastAlg = AlgBinomial },
			func(p *Proc, d []float64) { p.World().Bcast(0, F64(d)) }, 128},
		{"bcast/scatter-allgather", func(w *World) { w.BcastAlg = AlgScatterAllgather },
			func(p *Proc, d []float64) { p.World().Bcast(0, F64(d)) }, 128},
		{"reduce/binomial", func(w *World) { w.ReduceAlg = AlgBinomial },
			reduceBody, 128},
		{"reduce/rabenseifner", func(w *World) { w.ReduceAlg = AlgRabenseifner },
			reduceBody, 128},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := allocBudget(t, size, nodes, tc.cfg, func(p *Proc) {
				data := make([]float64, elems)
				for i := range data {
					data[i] = float64(p.Rank() + i)
				}
				tc.body(p, data)
			})
			// The per-iteration data slice above is an intentional,
			// counted allocation (one make per op); budgets include it.
			if budget := tc.budget * raceAllocFactor; got > budget {
				t.Errorf("%s: %.0f allocs/op, budget %.0f", tc.name, got, budget)
			}
			t.Logf("%s steady state: %.0f allocs/op", tc.name, got)
		})
	}
}

// TestAllocBudgetExtraCollectives pins steady-state budgets for the ring
// reduce-scatter and ring allgather — the two collectives the ZeRO-style
// sharded-optimizer workload leans on. With buffers hoisted out of the
// loop, both should be allocation-free in steady state: reduce-scatter's
// running partial-sum clone and per-round scratch come from the world's
// pow2 scratch pool, and the ring allgather works entirely inside the
// caller's receive buffers (its measured residue is 0 allocs/op; the
// budget leaves the same headroom as the allreduce family's).
func TestAllocBudgetExtraCollectives(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need benchmark iterations")
	}
	const (
		size  = 12
		nodes = 4
		blk   = 1024 // per-rank shard; the full vector is size*blk elements
	)
	t.Run("reduce-scatter/ring", func(t *testing.T) {
		got := steadyAllocs(t, size, nodes, nil, func(p *Proc) func() {
			send := make([]float64, size*blk)
			for i := range send {
				send[i] = float64(p.Rank() + i)
			}
			recv := make([]float64, blk)
			return func() { p.World().ReduceScatter(F64(send), F64(recv), OpSum) }
		})
		if budget := float64(64 * raceAllocFactor); got > budget {
			t.Errorf("reduce-scatter: %.0f allocs/op, budget %.0f", got, budget)
		}
		t.Logf("reduce-scatter steady state: %.0f allocs/op", got)
	})
	t.Run("allgather/ring", func(t *testing.T) {
		got := steadyAllocs(t, size, nodes, nil, func(p *Proc) func() {
			send := make([]float64, blk)
			for i := range send {
				send[i] = float64(p.Rank() + i)
			}
			bufs := make([]Buffer, size)
			for i := range bufs {
				bufs[i] = F64(make([]float64, blk))
			}
			return func() { p.World().Allgather(F64(send), bufs) }
		})
		if budget := float64(64 * raceAllocFactor); got > budget {
			t.Errorf("allgather: %.0f allocs/op, budget %.0f", got, budget)
		}
		t.Logf("allgather steady state: %.0f allocs/op", got)
	})
}
