package mpi

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

// collSizes covers both algorithm branches (short/binomial and
// long/Rabenseifner or scatter-allgather) and odd lengths.
var collSizes = []int{1, 3, 100, 8192, 9000, 40000}

// collRanks covers power-of-two and non-power-of-two communicator sizes.
var collRanks = []int{2, 3, 4, 5, 7, 8, 12}

func TestBcastAgainstOracle(t *testing.T) {
	for _, p := range collRanks {
		for _, n := range collSizes {
			for root := 0; root < p; root += max(1, p-1) { // roots 0 and p-1
				p, n, root := p, n, root
				want := make([]float64, n)
				rng := rand.New(rand.NewSource(int64(p*1000 + n + root)))
				for i := range want {
					want[i] = rng.Float64()
				}
				runJob(t, p, min(p, 4), func(pr *Proc) {
					c := pr.World()
					buf := make([]float64, n)
					if pr.Rank() == root {
						copy(buf, want)
					}
					c.Bcast(root, F64(buf))
					for i := range buf {
						if buf[i] != want[i] {
							t.Errorf("p=%d n=%d root=%d rank=%d: elem %d = %g want %g",
								p, n, root, pr.Rank(), i, buf[i], want[i])
							return
						}
					}
				})
			}
		}
	}
}

func TestReduceAgainstOracle(t *testing.T) {
	for _, p := range collRanks {
		for _, n := range collSizes {
			for root := 0; root < p; root += max(1, p-1) {
				p, n, root := p, n, root
				contrib := make([][]float64, p)
				want := make([]float64, n)
				rng := rand.New(rand.NewSource(int64(p*7777 + n + root)))
				for r := 0; r < p; r++ {
					contrib[r] = make([]float64, n)
					for i := range contrib[r] {
						contrib[r][i] = rng.Float64() - 0.5
						want[i] += contrib[r][i]
					}
				}
				runJob(t, p, min(p, 4), func(pr *Proc) {
					c := pr.World()
					send := make([]float64, n)
					copy(send, contrib[pr.Rank()])
					var recv Buffer
					if pr.Rank() == root {
						recv = F64(make([]float64, n))
					}
					c.Reduce(root, F64(send), recv, OpSum)
					if pr.Rank() == root {
						for i := range recv.Data {
							if math.Abs(recv.Data[i]-want[i]) > 1e-12*float64(p) {
								t.Errorf("p=%d n=%d root=%d: elem %d = %g want %g",
									p, n, root, i, recv.Data[i], want[i])
								return
							}
						}
					}
					// Contribution buffers must be unmodified (MPI semantics).
					for i := range send {
						if send[i] != contrib[pr.Rank()][i] {
							t.Errorf("p=%d n=%d: send buffer clobbered at %d", p, n, i)
							return
						}
					}
				})
			}
		}
	}
}

func TestReduceMax(t *testing.T) {
	const p, n = 5, 100
	runJob(t, p, 3, func(pr *Proc) {
		c := pr.World()
		send := make([]float64, n)
		for i := range send {
			send[i] = float64((pr.Rank()*13 + i) % 31)
		}
		var recv Buffer
		if pr.Rank() == 0 {
			recv = F64(make([]float64, n))
		}
		c.Reduce(0, F64(send), recv, OpMax)
		if pr.Rank() == 0 {
			for i := 0; i < n; i++ {
				want := 0.0
				for r := 0; r < p; r++ {
					if v := float64((r*13 + i) % 31); v > want {
						want = v
					}
				}
				if recv.Data[i] != want {
					t.Fatalf("elem %d = %g want %g", i, recv.Data[i], want)
				}
			}
		}
	})
}

func TestAllreduceAgainstOracle(t *testing.T) {
	for _, p := range collRanks {
		for _, n := range collSizes {
			p, n := p, n
			contrib := make([][]float64, p)
			want := make([]float64, n)
			rng := rand.New(rand.NewSource(int64(p*31 + n)))
			for r := 0; r < p; r++ {
				contrib[r] = make([]float64, n)
				for i := range contrib[r] {
					contrib[r][i] = rng.Float64() - 0.5
					want[i] += contrib[r][i]
				}
			}
			runJob(t, p, min(p, 4), func(pr *Proc) {
				c := pr.World()
				buf := make([]float64, n)
				copy(buf, contrib[pr.Rank()])
				c.Allreduce(F64(buf), OpSum)
				for i := range buf {
					if math.Abs(buf[i]-want[i]) > 1e-12*float64(p) {
						t.Errorf("p=%d n=%d rank=%d: elem %d = %g want %g",
							p, n, pr.Rank(), i, buf[i], want[i])
						return
					}
				}
			})
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const p = 6
	var mu sync.Mutex
	var before, after []float64
	runJob(t, p, 3, func(pr *Proc) {
		c := pr.World()
		pr.Sleep(float64(pr.Rank()) * 1e-3) // stagger arrivals
		mu.Lock()
		before = append(before, pr.Now())
		mu.Unlock()
		c.Barrier()
		mu.Lock()
		after = append(after, pr.Now())
		mu.Unlock()
	})
	maxBefore := 0.0
	for _, v := range before {
		if v > maxBefore {
			maxBefore = v
		}
	}
	for _, v := range after {
		if v < maxBefore {
			t.Errorf("a rank left the barrier at %g before the last arrival at %g", v, maxBefore)
		}
	}
}

func TestIbcastMatchesBcast(t *testing.T) {
	const p, n = 4, 20000
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i)
	}
	runJob(t, p, 4, func(pr *Proc) {
		c := pr.World()
		buf := make([]float64, n)
		if pr.Rank() == 0 {
			copy(buf, want)
		}
		req := c.Ibcast(0, F64(buf))
		req.Wait()
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("rank %d elem %d = %g", pr.Rank(), i, buf[i])
			}
		}
	})
}

func TestIreduceMatchesReduce(t *testing.T) {
	const p, n = 5, 15000
	runJob(t, p, 5, func(pr *Proc) {
		c := pr.World()
		send := make([]float64, n)
		for i := range send {
			send[i] = float64(pr.Rank())
		}
		var recv Buffer
		if pr.Rank() == 2 {
			recv = F64(make([]float64, n))
		}
		req := c.Ireduce(2, F64(send), recv, OpSum)
		req.Wait()
		if pr.Rank() == 2 {
			want := float64(p * (p - 1) / 2)
			for i := range recv.Data {
				if recv.Data[i] != want {
					t.Fatalf("elem %d = %g want %g", i, recv.Data[i], want)
				}
			}
		}
	})
}

func TestConcurrentCollectivesOnDupedComms(t *testing.T) {
	// The core mechanism of the paper: N_DUP outstanding collectives on
	// duplicated communicators must not cross-match and must all produce
	// correct results.
	const p, n, ndup = 4, 12000, 4
	runJob(t, p, 4, func(pr *Proc) {
		comms := pr.World().DupN(ndup)
		bufs := make([][]float64, ndup)
		reqs := make([]*Request, ndup)
		for d := 0; d < ndup; d++ {
			bufs[d] = make([]float64, n)
			if pr.Rank() == 0 {
				for i := range bufs[d] {
					bufs[d][i] = float64(d*n + i)
				}
			}
			reqs[d] = comms[d].Ibcast(0, F64(bufs[d]))
		}
		Waitall(reqs...)
		for d := 0; d < ndup; d++ {
			for i := range bufs[d] {
				if bufs[d][i] != float64(d*n+i) {
					t.Fatalf("rank %d dup %d elem %d = %g", pr.Rank(), d, i, bufs[d][i])
				}
			}
		}
	})
}

func TestBackToBackCollectivesSameComm(t *testing.T) {
	const p = 4
	runJob(t, p, 4, func(pr *Proc) {
		c := pr.World()
		for iter := 0; iter < 5; iter++ {
			buf := []float64{0}
			if pr.Rank() == iter%p {
				buf[0] = float64(iter + 1)
			}
			c.Bcast(iter%p, F64(buf))
			if buf[0] != float64(iter+1) {
				t.Fatalf("iter %d: got %g", iter, buf[0])
			}
		}
	})
}

func TestPhantomCollectivesAdvanceTime(t *testing.T) {
	var bcastT, reduceT float64
	runJob(t, 4, 4, func(pr *Proc) {
		c := pr.World()
		t0 := pr.Now()
		c.Bcast(0, Phantom(8<<20))
		if pr.Rank() == 0 {
			bcastT = pr.Now() - t0
		}
		c.Barrier()
		t1 := pr.Now()
		c.Reduce(0, Phantom(8<<20), Phantom(8<<20), OpSum)
		c.Barrier()
		if pr.Rank() == 0 {
			reduceT = pr.Now() - t1
		}
	})
	if bcastT <= 0 || reduceT <= 0 {
		t.Fatalf("phantom collectives took no time: bcast=%g reduce=%g", bcastT, reduceT)
	}
	if reduceT <= bcastT {
		t.Errorf("reduce (%g) should cost more than bcast (%g): it pays combine arithmetic", reduceT, bcastT)
	}
}

// TestPhantomScatterAllgatherOddSizes: the scatter-allgather bcast splits
// the payload into ceil(n/p)-element pieces, so on a phantom whose byte count
// is not a multiple of 8 the last ranks hold empty tail pieces whenever
// ceil(n/p)·(p-1) >= n. Those pieces must move 0 bytes: a negative size
// panics inside the fabric, on a rank goroutine no caller can recover.
func TestPhantomScatterAllgatherOddSizes(t *testing.T) {
	for _, p := range []int{3, 4, 7} {
		for _, n := range []int64{2, 33} {
			eng := sim.NewEngine()
			net, err := simnet.New(eng, simnet.DefaultConfig(p))
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorld(net, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			w.BcastAlg = AlgScatterAllgather
			w.Launch(func(pr *Proc) { pr.World().Bcast(0, Phantom(n)) })
			if err := eng.Run(); err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
		}
	}
}

func TestIbarrierPollWait(t *testing.T) {
	// Ranks 2,3 park on Ibarrier+PollWait while 0,1 do work, then everyone
	// is released — the paper's per-kernel PPN mechanism.
	const p = 4
	var releasedAt [p]float64
	var workDone float64
	runJob(t, p, 2, func(pr *Proc) {
		c := pr.World()
		if pr.Rank() >= 2 {
			req := c.Ibarrier()
			pr.PollWait(req, DefaultPollInterval)
			releasedAt[pr.Rank()] = pr.Now()
		} else {
			pr.Sleep(42e-3) // "active kernel work"
			if pr.Rank() == 0 {
				workDone = pr.Now()
			}
			c.Ibarrier().Wait()
			releasedAt[pr.Rank()] = pr.Now()
		}
	})
	for r := 2; r < p; r++ {
		if releasedAt[r] < workDone {
			t.Errorf("parked rank %d released at %g before work finished at %g", r, releasedAt[r], workDone)
		}
		// Poll interval bounds the wake-up delay.
		if releasedAt[r] > workDone+2*DefaultPollInterval {
			t.Errorf("parked rank %d woke too late: %g vs work end %g", r, releasedAt[r], workDone)
		}
	}
}

// Property: allreduce result equals the serial sum for random sizes/values.
func TestAllreduceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := collRanks[rng.Intn(len(collRanks))]
		n := rng.Intn(5000) + 1
		contrib := make([][]float64, p)
		want := make([]float64, n)
		for r := 0; r < p; r++ {
			contrib[r] = make([]float64, n)
			for i := range contrib[r] {
				contrib[r][i] = rng.NormFloat64()
				want[i] += contrib[r][i]
			}
		}
		ok := true
		runJob(t, p, min(p, 4), func(pr *Proc) {
			buf := make([]float64, n)
			copy(buf, contrib[pr.Rank()])
			pr.World().Allreduce(F64(buf), OpSum)
			for i := range buf {
				if math.Abs(buf[i]-want[i]) > 1e-10*float64(p) {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestRsRangePartition(t *testing.T) {
	// The halving ranges of all new ranks must tile [0, n) exactly.
	for _, pof2 := range []int{1, 2, 4, 8, 16} {
		for _, n := range []int{1, 7, 64, 1000} {
			covered := make([]int, n)
			for nr := 0; nr < pof2; nr++ {
				lo, hi := rsRange(n, pof2, nr)
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			}
			for i, cnt := range covered {
				if cnt != 1 {
					t.Fatalf("pof2=%d n=%d: element %d covered %d times", pof2, n, i, cnt)
				}
			}
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
