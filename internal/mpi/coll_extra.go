package mpi

import "commoverlap/internal/sim"

// This file provides the two collectives beyond the paper's Bcast/Reduce/
// Allreduce/Barrier that the ML-workload layer needs: allgather and
// reduce-scatter, blocking and nonblocking, both with the ring schedule.
// ZeRO-style sharding (internal/workload) pre-posts Ireducescatter for the
// gradient shards and drains Iallgather for the updated parameters.

// allgatherRun is the ring allgather: p-1 rounds, each rank forwarding the
// block it received in the previous round. sendBuf is this rank's block;
// recvBufs[i] receives rank i's block on every rank.
func (c *Comm) allgatherRun(sp *sim.Proc, sendBuf Buffer, recvBufs []Buffer, tag int) {
	recvBufs[c.rank].copyFrom(sendBuf)
	c.ringAllgather(sp, func(i int) Buffer { return recvBufs[i] }, c.rank, tag)
}

// reduceScatterRun combines equal-shaped contributions and leaves block i
// on rank i, with the ring schedule (the reduce-scatter half of the ring
// allreduce): p-1 rounds in which every rank sends its running partial sum
// of one block to its right neighbor and combines the block arriving from
// the left, so after round p-2 rank r holds the complete sum of block r.
// Per-rank volume is (p-1)/p * n with nearest-neighbor traffic only — the
// shape ZeRO-style gradient sharding wants — and the only storage is one
// pooled clone of the contribution plus pooled receive scratch, so
// steady-state cost is allocation-free (see alloc_budget_test).
func (c *Comm) reduceScatterRun(sp *sim.Proc, sendBuf Buffer, recvBuf Buffer, op Op, tag int) {
	p := c.Size()
	elems := recvBuf.Len()
	if p == 1 {
		recvBuf.copyFrom(sendBuf)
		return
	}
	w := c.p.w
	n := sendBuf.Len()
	acc := w.cloneBuf(sendBuf) // running partial sums; sendBuf is read-only
	// block b of the contribution; a short final block (n < p*elems) stays
	// congruent with how the pieces were laid out by the caller.
	block := func(b int) Buffer { return acc.Slice(min(b*elems, n), min(b*elems+elems, n)) }
	c.ringReduceScatter(sp, block, (c.rank-1+p)%p, tag, op)
	recvBuf.copyFrom(block(c.rank))
	w.releaseScratch(acc)
}

// ---------------------------------------------------------------------------
// Public blocking API
// ---------------------------------------------------------------------------

// Allgather gives every rank every block: recvBufs[i] receives rank i's
// sendBuf on all ranks.
func (c *Comm) Allgather(sendBuf Buffer, recvBufs []Buffer) {
	c.allgatherRun(c.p.sp, sendBuf, recvBufs, c.post(sendBuf.Bytes(), 1))
}

// ReduceScatter combines sendBuf (length p * blockLen) across all ranks
// under op and leaves block i in rank i's recvBuf.
func (c *Comm) ReduceScatter(sendBuf, recvBuf Buffer, op Op) {
	c.reduceScatterRun(c.p.sp, sendBuf, recvBuf, op, c.post(sendBuf.Bytes(), 1))
}

// ---------------------------------------------------------------------------
// Public nonblocking API
// ---------------------------------------------------------------------------

// Iallgather posts a nonblocking Allgather.
func (c *Comm) Iallgather(sendBuf Buffer, recvBufs []Buffer) *Request {
	tag := c.post(sendBuf.Bytes(), 1)
	return c.spawnColl("iallgather", func(sp *sim.Proc) {
		c.allgatherRun(sp, sendBuf, recvBufs, tag)
	})
}

// Ireducescatter posts a nonblocking ReduceScatter.
func (c *Comm) Ireducescatter(sendBuf, recvBuf Buffer, op Op) *Request {
	tag := c.post(sendBuf.Bytes(), 1)
	return c.spawnColl("ireducescatter", func(sp *sim.Proc) {
		c.reduceScatterRun(sp, sendBuf, recvBuf, op, tag)
	})
}
