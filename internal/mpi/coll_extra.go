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
	p := c.Size()
	recvBufs[c.rank].copyFrom(sendBuf)
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for k := 0; k < p-1; k++ {
		sendIdx := (c.rank - k + p) % p
		recvIdx := (c.rank - k - 1 + p) % p
		sreq := c.isendOn(sp, right, tag+k, recvBufs[sendIdx])
		c.recvOn(sp, left, tag+k, recvBufs[recvIdx])
		sreq.waitFree(sp)
	}
}

// reduceScatterRun combines equal-shaped contributions and leaves block i
// on rank i, with the ring schedule (the reduce-scatter half of the ring
// allreduce): p-1 rounds in which every rank sends its running partial sum
// of one block to its right neighbor and combines the block arriving from
// the left, so after round p-2 rank r holds the complete sum of block r.
// Per-rank volume is (p-1)/p * n with nearest-neighbor traffic only — the
// shape ZeRO-style gradient sharding wants — and the only storage is one
// pooled clone of the contribution plus one pooled block of receive
// scratch, so steady-state cost is allocation-free (see alloc_budget_test).
func (c *Comm) reduceScatterRun(sp *sim.Proc, sendBuf Buffer, recvBuf Buffer, op Op, tag int) {
	p := c.Size()
	elems := recvBuf.Len()
	if p == 1 {
		recvBuf.copyFrom(sendBuf)
		return
	}
	w := c.p.w
	n := sendBuf.Len()
	// block b of the contribution; a short final block (n < p*elems) stays
	// congruent with how the pieces were laid out by the caller.
	block := func(b int) (lo, hi int) { return min(b*elems, n), min(b*elems+elems, n) }
	acc := w.cloneBuf(sendBuf) // running partial sums; sendBuf is read-only
	tmp := w.getScratch(sendBuf, elems)
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for k := 0; k < p-1; k++ {
		sb := ((c.rank-k-1)%p + p) % p
		rb := ((c.rank-k-2)%p + p) % p
		slo, shi := block(sb)
		rlo, rhi := block(rb)
		// The sent block and the combined block are disjoint (sb != rb), so
		// combining before the send completes cannot corrupt a rendezvous
		// capture — the same discipline as the ring allreduce.
		sreq := c.isendOn(sp, right, tag+k, acc.Slice(slo, shi))
		c.recvOn(sp, left, tag+k, tmp.Slice(0, rhi-rlo))
		keep := acc.Slice(rlo, rhi)
		c.chargeReduceArith(sp, keep.Bytes())
		combineInto(keep, tmp.Slice(0, rhi-rlo), op)
		sreq.waitFree(sp)
	}
	mlo, mhi := block(c.rank)
	recvBuf.copyFrom(acc.Slice(mlo, mhi))
	w.releaseScratch(tmp)
	w.releaseScratch(acc)
}

// ---------------------------------------------------------------------------
// Public blocking API
// ---------------------------------------------------------------------------

// Allgather gives every rank every block: recvBufs[i] receives rank i's
// sendBuf on all ranks.
func (c *Comm) Allgather(sendBuf Buffer, recvBufs []Buffer) {
	tag := c.nextCollTag()
	c.chargeStaging(c.p.sp, sendBuf.Bytes(), 1)
	c.allgatherRun(c.p.sp, sendBuf, recvBufs, tag)
}

// ReduceScatter combines sendBuf (length p * blockLen) across all ranks
// under op and leaves block i in rank i's recvBuf.
func (c *Comm) ReduceScatter(sendBuf, recvBuf Buffer, op Op) {
	tag := c.nextCollTag()
	c.chargeStaging(c.p.sp, sendBuf.Bytes(), 1)
	c.reduceScatterRun(c.p.sp, sendBuf, recvBuf, op, tag)
}

// ---------------------------------------------------------------------------
// Public nonblocking API
// ---------------------------------------------------------------------------

// Iallgather posts a nonblocking Allgather.
func (c *Comm) Iallgather(sendBuf Buffer, recvBufs []Buffer) *Request {
	tag := c.nextCollTag()
	c.chargeStaging(c.p.sp, sendBuf.Bytes(), 1)
	return c.spawnColl("iallgather", func(sp *sim.Proc) {
		c.allgatherRun(sp, sendBuf, recvBufs, tag)
	})
}

// Ireducescatter posts a nonblocking ReduceScatter.
func (c *Comm) Ireducescatter(sendBuf, recvBuf Buffer, op Op) *Request {
	tag := c.nextCollTag()
	c.chargeStaging(c.p.sp, sendBuf.Bytes(), 1)
	return c.spawnColl("ireducescatter", func(sp *sim.Proc) {
		c.reduceScatterRun(sp, sendBuf, recvBuf, op, tag)
	})
}
