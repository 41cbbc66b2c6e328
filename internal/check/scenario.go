package check

import (
	"math/rand"

	"commoverlap/internal/core"
	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/workload"
)

// Payload sizes chosen to straddle the transport's eager/rendezvous split
// (64 KiB): eager messages copy and complete at injection, rendezvous ones
// add an RTS/CTS handshake whose zero-byte control message is exactly the
// kind of traffic that can race ahead of bulk data under a perturbed
// schedule.
const (
	eagerElems = 512   // 4 KiB, eager
	rndvElems  = 12000 // 96 KB, rendezvous
)

// All payloads are small integers so that tree reductions are exact in
// float64 regardless of association order, making oracle comparison
// schedule-independent.

// Catalog returns the scenario library. Each scenario is small enough to
// run in milliseconds so the explorer can afford hundreds of schedules, and
// together they cover every collective, both transport protocols, the
// pipelined multi-communicator pattern from the paper, the SymmSquareCube
// kernel, and the parked-rank PPN mechanism.
func Catalog() []Scenario {
	return []Scenario{
		p2pBurst(),
		p2pCrossTraffic(),
		bcastScenario("bcast-eager", eagerElems),
		bcastScenario("bcast-rndv", rndvElems),
		reduceScenario("reduce-eager", eagerElems),
		reduceScenario("reduce-rndv", rndvElems),
		// 6 ranks: non-power-of-two sizes take the fold/unfold path of
		// recursive halving-doubling.
		allreduceAlgScenario("allreduce", mpi.AlgAuto, ""),
		allreduceAlgScenario("allreduce-ring-hier", mpi.AlgRing, "hier"),
		allreduceAlgScenario("allreduce-bruck-hier", mpi.AlgBruck, "hier"),
		allreduceAlgScenario("allreduce-shift-torus", mpi.AlgShift, "torus"),
		barrierStorm(),
		pipelineNDup(),
		symmSquareCube(),
		parkedPPN(),
		mlworkScenario("mlwork-dp", workload.DataParallel, "", rndvElems, 1),
		mlworkScenario("mlwork-zero-hier", workload.ZeRO, "hier", rndvElems, 2),
		mlworkScenario("mlwork-pipeline", workload.Pipeline, "", eagerElems, 2),
		progressRanksScenario(),
		progressDMAScenario(),
	}
}

// Find returns the named scenario from the catalog.
func Find(name string) (Scenario, bool) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// p2pBurst sends a burst of same-pair messages that alternate across the
// eager/rendezvous boundary on one tag. Receive order must equal send order
// even when the zero-byte rendezvous RTS beats an in-flight eager payload.
// This is the checker's most ordering-sensitive scenario: the injected-bug
// self-test runs it with admission sequencing disabled and must see it
// fail.
func p2pBurst() Scenario {
	const k = 6
	return Scenario{
		Name: "p2p-burst", Ranks: 2, Nodes: 2,
		Body: func(p *mpi.Proc, fail Failf) {
			c := p.World()
			sizes := [k]int{eagerElems, rndvElems, eagerElems, rndvElems, rndvElems, eagerElems}
			if p.Rank() == 0 {
				reqs := make([]*mpi.Request, k)
				for i, n := range sizes {
					buf := make([]float64, n)
					for j := range buf {
						buf[j] = float64(i + 1)
					}
					reqs[i] = c.Isend(1, 7, mpi.F64(buf))
				}
				mpi.Waitall(reqs...)
				return
			}
			for i, n := range sizes {
				buf := make([]float64, rndvElems)
				st := c.Recv(0, 7, mpi.F64(buf))
				if st.Bytes != int64(n)*8 || buf[0] != float64(i+1) {
					fail("p2p-burst: recv %d got %d bytes value %g, want %d bytes value %d",
						i, st.Bytes, buf[0], n*8, i+1)
				}
			}
		},
	}
}

// p2pCrossTraffic exchanges messages in both directions between two node
// pairs at once, with each rank both sending and receiving, so transfers
// contend for shared wires in every direction.
func p2pCrossTraffic() Scenario {
	return Scenario{
		Name: "p2p-cross", Ranks: 4, Nodes: 2,
		Body: func(p *mpi.Proc, fail Failf) {
			c := p.World()
			peer := p.Rank() ^ 1 // 0<->1, 2<->3, placed on opposite nodes
			const k = 4
			reqs := make([]*mpi.Request, 0, 2*k)
			recvBufs := make([][]float64, k)
			for i := 0; i < k; i++ {
				out := make([]float64, eagerElems)
				for j := range out {
					out[j] = float64(10*p.Rank() + i)
				}
				recvBufs[i] = make([]float64, eagerElems)
				reqs = append(reqs,
					c.Isend(peer, 3, mpi.F64(out)),
					c.Irecv(peer, 3, mpi.F64(recvBufs[i])))
			}
			mpi.Waitall(reqs...)
			for i, buf := range recvBufs {
				if buf[0] != float64(10*peer+i) {
					fail("p2p-cross: rank %d recv %d got %g, want %d", p.Rank(), i, buf[0], 10*peer+i)
				}
			}
		},
	}
}

func bcastScenario(name string, elems int) Scenario {
	return Scenario{
		Name: name, Ranks: 6, Nodes: 3,
		Body: func(p *mpi.Proc, fail Failf) {
			c := p.World()
			buf := make([]float64, elems)
			if p.Rank() == 2 { // non-zero root exercises the rank rotation
				for i := range buf {
					buf[i] = float64(i%17 + 1)
				}
			}
			c.Bcast(2, mpi.F64(buf))
			for i := range buf {
				if buf[i] != float64(i%17+1) {
					fail("%s: rank %d element %d = %g, want %d", name, p.Rank(), i, buf[i], i%17+1)
					return
				}
			}
		},
	}
}

func reduceScenario(name string, elems int) Scenario {
	return Scenario{
		Name: name, Ranks: 6, Nodes: 3,
		Body: func(p *mpi.Proc, fail Failf) {
			c := p.World()
			send := make([]float64, elems)
			for i := range send {
				send[i] = float64((p.Rank() + 1) * (i%7 + 1))
			}
			recv := make([]float64, elems)
			c.Reduce(1, mpi.F64(send), mpi.F64(recv), mpi.OpSum)
			if p.Rank() != 1 {
				return
			}
			ranks := c.Size() * (c.Size() + 1) / 2 // sum of (rank+1)
			for i := range recv {
				if want := float64(ranks * (i%7 + 1)); recv[i] != want {
					fail("%s: root element %d = %g, want %g", name, i, recv[i], want)
					return
				}
			}
		},
	}
}

// allreduceAlgScenario runs a six-rank allreduce under algorithm alg on
// fabric topo. Forcing one member of the collective-algorithm family on a
// non-flat fabric drives the ring, Bruck, and shift-schedule exchange
// patterns — and the interior-link contention they create on shared
// uplinks or torus rails — through the full invariant battery. Six ranks
// keep the non-power-of-two paths (Bruck's wrap step, the ring's uneven
// segments) live.
func allreduceAlgScenario(name, alg, topo string) Scenario {
	return Scenario{
		Name: name, Ranks: 6, Nodes: 3, Topo: topo,
		Setup: func(w *mpi.World) { w.AllreduceAlg = alg },
		Body: func(p *mpi.Proc, fail Failf) {
			c := p.World()
			buf := make([]float64, rndvElems)
			for i := range buf {
				buf[i] = float64((p.Rank() + 1) * (i%5 + 1))
			}
			c.Allreduce(mpi.F64(buf), mpi.OpSum)
			ranks := c.Size() * (c.Size() + 1) / 2
			for i := range buf {
				if want := float64(ranks * (i%5 + 1)); buf[i] != want {
					fail("%s: rank %d element %d = %g, want %g", name, p.Rank(), i, buf[i], want)
					return
				}
			}
		},
	}
}

// barrierStorm alternates barriers with unsynchronized sleeps of different
// lengths per rank, checking that no rank leaves barrier b before every
// rank has entered it.
func barrierStorm() Scenario {
	return Scenario{
		Name: "barrier-storm", Ranks: 8, Nodes: 4,
		Body: func(p *mpi.Proc, fail Failf) {
			c := p.World()
			prev := 0.0
			for b := 0; b < 5; b++ {
				p.Sleep(float64((p.Rank()*7+b*3)%11) * 1e-6)
				entered := p.Now()
				c.Barrier()
				if p.Now() < entered {
					fail("barrier-storm: rank %d left barrier %d at %g before entering at %g",
						p.Rank(), b, p.Now(), entered)
				}
				if p.Now() < prev {
					fail("barrier-storm: rank %d time moved backwards across barrier %d", p.Rank(), b)
				}
				prev = p.Now()
			}
		},
	}
}

// pipelineNDup is the paper's core overlap pattern: NDup duplicated
// communicators each carrying an Ireduce whose result feeds an Ibcast, all
// in flight at once. Results on every communicator must match the serial
// oracle regardless of how the schedules interleave.
func pipelineNDup() Scenario {
	const (
		ndup  = 3
		elems = 2048
	)
	return Scenario{
		Name: "pipeline-ndup", Ranks: 4, Nodes: 2,
		Body: func(p *mpi.Proc, fail Failf) {
			world := p.World()
			dups := world.DupN(ndup)
			sums := make([][]float64, ndup)
			reduces := make([]*mpi.Request, ndup)
			for d, c := range dups {
				send := make([]float64, elems)
				for i := range send {
					send[i] = float64((p.Rank() + 1) * (d + 1))
				}
				sums[d] = make([]float64, elems)
				reduces[d] = c.Ireduce(0, mpi.F64(send), mpi.F64(sums[d]), mpi.OpSum)
			}
			// As each reduction lands on the root, broadcast its result on
			// the same duplicate — the reduce of band d+1 overlaps the
			// bcast of band d.
			bcasts := make([]*mpi.Request, ndup)
			for d, c := range dups {
				reduces[d].Wait()
				bcasts[d] = c.Ibcast(0, mpi.F64(sums[d]))
			}
			mpi.Waitall(bcasts...)
			ranks := world.Size() * (world.Size() + 1) / 2
			for d := range dups {
				for i, v := range sums[d] {
					if want := float64(ranks * (d + 1)); v != want {
						fail("pipeline-ndup: rank %d dup %d element %d = %g, want %g", p.Rank(), d, i, v, want)
						return
					}
				}
			}
		},
	}
}

// symmSquareCube runs the paper's optimized kernel (Alg. 5) in real
// arithmetic on a 2x2x2 mesh and compares every plane-0 block against the
// serial D², D³ oracle.
func symmSquareCube() Scenario {
	const (
		meshP = 2
		n     = 12
		ndup  = 2
	)
	return Scenario{
		Name: "symmsqcube", Ranks: meshP * meshP * meshP, Nodes: 4,
		Body: func(p *mpi.Proc, fail Failf) {
			dims := mesh.Cubic(meshP)
			// Every rank regenerates the same seeded input, so the oracle
			// needs no cross-goroutine sharing.
			d := mat.RandSymmetric(n, rand.New(rand.NewSource(12345)))
			env, err := core.NewEnv(p, dims, core.Config{N: n, NDup: ndup, Real: true})
			if err != nil {
				fail("symmsqcube: rank %d: %v", p.Rank(), err)
				return
			}
			var dblk *mat.Matrix
			if env.M.K == 0 {
				dblk = mat.BlockView(d, meshP, env.M.I, env.M.J).Clone()
			}
			res := env.SymmSquareCube(core.Optimized, dblk)
			if env.M.K != 0 {
				if res.D2 != nil || res.D3 != nil {
					fail("symmsqcube: rank %d off plane 0 got results", p.Rank())
				}
				return
			}
			wantD2, wantD3 := mat.New(n, n), mat.New(n, n)
			mat.Gemm(1, d, d, 0, wantD2)
			mat.Gemm(1, d, wantD2, 0, wantD3)
			tol := 1e-10 * float64(n)
			if diff := res.D2.MaxAbsDiff(mat.BlockView(wantD2, meshP, env.M.I, env.M.J)); diff > tol {
				fail("symmsqcube: rank %d D2 block differs from oracle by %g", p.Rank(), diff)
			}
			if diff := res.D3.MaxAbsDiff(mat.BlockView(wantD3, meshP, env.M.I, env.M.J)); diff > tol {
				fail("symmsqcube: rank %d D3 block differs from oracle by %g", p.Rank(), diff)
			}
		},
	}
}

// mlworkScenario drives one ML-training communication pattern from
// internal/workload — the production RunRank path, duplicated
// communicators, parked surplus lanes and all — through the full
// invariant battery. The pattern bodies carry their own exact
// small-integer oracles, so any schedule perturbation the explorer (or a
// fault profile: a straggler here is literally a straggling worker) finds
// that corrupts a gradient, shard or activation surfaces as a failure,
// on top of the delivery/accounting/teardown invariants.
func mlworkScenario(name string, pat workload.Pattern, topo string, elems, ppn int) Scenario {
	spec := workload.Spec{
		Pattern:   pat,
		Nodes:     4,
		LaunchPPN: 2,
		PPN:       ppn,
		NDup:      2,
		Units:     3,
		Elems:     elems,
		Overlap:   true,
		Topo:      topo,
	}
	ranks := spec.Nodes * spec.LaunchPPN
	return Scenario{
		Name: name, Ranks: ranks, Nodes: spec.Nodes, Topo: topo,
		// Natural placement so "lane < PPN parks" maps to physical nodes
		// the way the workload's launch convention assumes.
		Placement: mesh.NaturalPlacement(ranks, spec.LaunchPPN),
		Body: func(p *mpi.Proc, fail Failf) {
			if _, err := workload.RunRank(p, spec); err != nil {
				fail("%s: %v", name, err)
			}
		},
	}
}

// progressRanksScenario drives the rank-mode progress engine through the
// full invariant battery: one lane per node becomes a progress agent, so
// every sibling's chunk pipeline is advanced on the agent's CPU — a second
// consumer contending for that lane on top of the agent's own software
// costs. The data-parallel workload body supplies the exact oracle; the
// resource-accounting invariant additionally audits the consumer-tagged
// ledger the contention produces.
func progressRanksScenario() Scenario {
	spec := workload.Spec{
		Pattern:   workload.DataParallel,
		Nodes:     4,
		LaunchPPN: 2,
		PPN:       1, // lane 0 works, lane 1 is the node's progress agent
		NDup:      2,
		Units:     3,
		Elems:     rndvElems,
		Overlap:   true,
		Progress:  "rank1",
	}
	ranks := spec.Nodes * spec.LaunchPPN
	return Scenario{
		Name: "progress-ranks", Ranks: ranks, Nodes: spec.Nodes,
		Placement: mesh.NaturalPlacement(ranks, spec.LaunchPPN),
		Progress:  spec.Progress,
		Body: func(p *mpi.Proc, fail Failf) {
			if _, err := workload.RunRank(p, spec); err != nil {
				fail("progress-ranks: %v", err)
			}
		},
	}
}

// progressDMAScenario drives the DMA-offload progress engine through the
// full invariant battery: chunk forwarding is charged to each node's
// offload engine instead of the posting rank's NIC lane, so the ZeRO
// workload's reduce-scatter/all-gather traffic and its optimizer compute
// contend through a resource the seed model does not have. The workload
// oracle plus the consumer-ledger audit must hold on every schedule.
func progressDMAScenario() Scenario {
	spec := workload.Spec{
		Pattern:   workload.ZeRO,
		Nodes:     4,
		LaunchPPN: 2,
		PPN:       2,
		NDup:      2,
		Units:     3,
		Elems:     rndvElems,
		Overlap:   true,
		Progress:  "dma",
	}
	ranks := spec.Nodes * spec.LaunchPPN
	return Scenario{
		Name: "progress-dma", Ranks: ranks, Nodes: spec.Nodes,
		Placement: mesh.NaturalPlacement(ranks, spec.LaunchPPN),
		Progress:  spec.Progress,
		Body: func(p *mpi.Proc, fail Failf) {
			if _, err := workload.RunRank(p, spec); err != nil {
				fail("progress-dma: %v", err)
			}
		},
	}
}

// parkedPPN exercises the paper's per-kernel PPN mechanism: half the ranks
// park on an Ibarrier poll loop while the active half runs a reduction on a
// split communicator, then everyone is released.
func parkedPPN() Scenario {
	return Scenario{
		Name: "parked-ppn", Ranks: 8, Nodes: 4,
		Body: func(p *mpi.Proc, fail Failf) {
			world := p.World()
			active := p.Rank()%2 == 0
			color := -1
			if active {
				color = 0
			}
			sub := world.Split(color, p.Rank())
			woken := -1.0
			mpi.RunActive(p, world, active, 1e-4, func() {
				buf := make([]float64, eagerElems)
				for i := range buf {
					buf[i] = float64(sub.Rank() + 1)
				}
				sub.Allreduce(mpi.F64(buf), mpi.OpSum)
				want := float64(sub.Size() * (sub.Size() + 1) / 2)
				if buf[0] != want {
					fail("parked-ppn: active rank %d sum %g, want %g", p.Rank(), buf[0], want)
				}
				woken = p.Now()
			})
			if active && p.Now() < woken {
				fail("parked-ppn: rank %d finished before its own body", p.Rank())
			}
		},
	}
}
