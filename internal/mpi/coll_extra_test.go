package mpi

import (
	"math"
	"math/rand"
	"testing"
)

// blockVals builds rank r's deterministic contribution of length n.
func blockVals(r, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(r*1000 + i)
	}
	return out
}

func TestAllgatherAgainstOracle(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		p := p
		const n = 40
		runJob(t, p, min(p, 4), func(pr *Proc) {
			send := F64(blockVals(pr.Rank(), n))
			recv := make([]Buffer, p)
			for i := range recv {
				recv[i] = F64(make([]float64, n))
			}
			pr.World().Allgather(send, recv)
			for i := 0; i < p; i++ {
				want := blockVals(i, n)
				for j, v := range recv[i].Data {
					if v != want[j] {
						t.Fatalf("p=%d rank=%d: block %d elem %d = %g want %g",
							p, pr.Rank(), i, j, v, want[j])
					}
				}
			}
		})
	}
}

func TestReduceScatterAgainstOracle(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5, 8} {
		for _, blk := range []int{1, 33, 2000} {
			p, blk := p, blk
			total := p * blk
			contrib := make([][]float64, p)
			rng := rand.New(rand.NewSource(int64(p*100 + blk)))
			want := make([]float64, total)
			for r := 0; r < p; r++ {
				contrib[r] = make([]float64, total)
				for i := range contrib[r] {
					contrib[r][i] = rng.Float64() - 0.5
					want[i] += contrib[r][i]
				}
			}
			runJob(t, p, min(p, 4), func(pr *Proc) {
				send := make([]float64, total)
				copy(send, contrib[pr.Rank()])
				recv := F64(make([]float64, blk))
				pr.World().ReduceScatter(F64(send), recv, OpSum)
				for j, v := range recv.Data {
					if math.Abs(v-want[pr.Rank()*blk+j]) > 1e-11*float64(p) {
						t.Errorf("p=%d blk=%d rank=%d: elem %d = %g want %g",
							p, blk, pr.Rank(), j, v, want[pr.Rank()*blk+j])
						return
					}
				}
			})
		}
	}
}

func TestNonblockingExtraCollectives(t *testing.T) {
	const p, n = 4, 50
	runJob(t, p, 4, func(pr *Proc) {
		w := pr.World()
		// Iallgather + Ireducescatter outstanding together on duplicated comms.
		c1, c2 := w.Dup(), w.Dup()
		send := F64(blockVals(pr.Rank(), n))
		recvG := make([]Buffer, p)
		for i := 0; i < p; i++ {
			recvG[i] = F64(make([]float64, n))
		}
		rs := F64(make([]float64, n/p*p))
		for i := range rs.Data {
			rs.Data[i] = 1
		}
		out := F64(make([]float64, n/p))
		r1 := c1.Iallgather(send, recvG)
		r2 := c2.Ireducescatter(rs, out, OpSum)
		Waitall(r1, r2)
		for i := 0; i < p; i++ {
			if recvG[i].Data[0] != float64(i*1000) {
				t.Errorf("iallgather block %d wrong: %g", i, recvG[i].Data[0])
			}
		}
		for _, v := range out.Data {
			if v != float64(p) {
				t.Fatalf("ireducescatter got %g want %d", v, p)
			}
		}
	})
}

func TestPhantomExtraCollectives(t *testing.T) {
	const p = 4
	runJob(t, p, 4, func(pr *Proc) {
		w := pr.World()
		t0 := pr.Now()
		w.Allgather(Phantom(1<<20), make([]Buffer, p))
		w.ReduceScatter(Phantom(4<<20), Phantom(1<<20), OpSum)
		if pr.Now() <= t0 {
			t.Error("phantom extra collectives took no time")
		}
	})
}

func TestPhantomAllgatherNeedsBuffers(t *testing.T) {
	// Phantom allgather with phantom recv buffers must still work.
	const p = 3
	runJob(t, p, 3, func(pr *Proc) {
		recv := make([]Buffer, p)
		for i := range recv {
			recv[i] = Phantom(4096)
		}
		pr.World().Allgather(Phantom(4096), recv)
	})
}
