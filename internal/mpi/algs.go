package mpi

import "commoverlap/internal/sim"

// The collective-algorithm family. Beyond the switch-point pair the World
// already exposes, the family adds topology-sensitive allreduce schedules:
// the ring (nearest-neighbor traffic only, which a hierarchical fabric's
// contiguous groups keep mostly intra-group), Bruck's shifted dissemination
// (log rounds of full-buffer exchanges at power-of-two distances), and the
// mixed-radix shift schedule of Kolmakov & Zhang's allreduce generalization
// (one reduce-scatter phase per prime factor of p, mirrored for the
// allgather). All three reduce exactly like the reference algorithms —
// byte-identical results, property-tested in alg_oracle_test.go.

// Algorithm names accepted by World.BcastAlg, World.ReduceAlg and
// World.AllreduceAlg.
const (
	// AlgAuto selects per call via the World's switch points.
	AlgAuto = ""
	// AlgBinomial is the binomial tree (bcast, reduce).
	AlgBinomial = "binomial"
	// AlgScatterAllgather is the van de Geijn long-message bcast.
	AlgScatterAllgather = "scatter-allgather"
	// AlgRecDouble is recursive-doubling allreduce.
	AlgRecDouble = "recdouble"
	// AlgRabenseifner is the reduce-scatter-based long-message algorithm
	// (reduce, allreduce).
	AlgRabenseifner = "rabenseifner"
	// AlgRing is the ring allreduce: p-1 reduce-scatter rounds plus p-1
	// allgather rounds over 1/p-sized blocks, nearest neighbors only.
	AlgRing = "ring"
	// AlgBruck is the Bruck-style allreduce: fold to a power of two, then
	// log2 rounds sending the full accumulator to rank+2^k.
	AlgBruck = "bruck"
	// AlgShift is the mixed-radix shift schedule: one direct-exchange
	// reduce-scatter phase per prime factor of p, mirrored back for the
	// allgather.
	AlgShift = "shift"
)

// BcastAlgs lists the forcible broadcast algorithms (excluding AlgAuto).
func BcastAlgs() []string { return []string{AlgBinomial, AlgScatterAllgather} }

// ReduceAlgs lists the forcible rooted-reduce algorithms.
func ReduceAlgs() []string { return []string{AlgBinomial, AlgRabenseifner} }

// AllreduceAlgs lists the forcible allreduce algorithms.
func AllreduceAlgs() []string {
	return []string{AlgRecDouble, AlgRabenseifner, AlgRing, AlgBruck, AlgShift}
}

// blockRange returns block b of n elements split into p near-equal
// contiguous blocks (the ring and shift schedules' granularity).
func blockRange(n, p, b int) (lo, hi int) { return b * n / p, (b + 1) * n / p }

// allreduceRing: blocks circulate around the rank ring. Reduce-scatter: in
// round s every rank sends block (rank-s) mod p — its running partial sum —
// to its right neighbor and combines the block arriving from the left, so
// after p-1 rounds rank r holds the complete sum of block (r+1) mod p.
// Allgather: the completed blocks make another p-1 trips. All traffic is
// nearest-neighbor, which keeps it inside hierarchical groups except at the
// group seams.
func (c *Comm) allreduceRing(sp *sim.Proc, buf Buffer, op Op, tagBase int) {
	p := c.Size()
	block := func(b int) Buffer {
		lo, hi := blockRange(buf.Len(), p, b)
		return buf.Slice(lo, hi)
	}
	c.ringReduceScatter(sp, block, c.rank, tagBase, op)
	c.ringAllgather(sp, block, (c.rank+1)%p, tagBase+p-1)
}

// factorize returns p's prime factorization in ascending order (p >= 2).
func factorize(p int) []int {
	var fs []int
	for f := 2; f*f <= p; f++ {
		for p%f == 0 {
			fs = append(fs, f)
			p /= f
		}
	}
	if p > 1 {
		fs = append(fs, p)
	}
	return fs
}

// classElems sums the element extents of the blocks in residue class cls
// modulo m among p blocks of n total elements.
func classElems(n, p, cls, m int) int {
	total := 0
	for b := cls; b < p; b += m {
		lo, hi := blockRange(n, p, b)
		total += hi - lo
	}
	return total
}

// packBlocks concatenates the blocks of residue class cls modulo m
// (ascending block order, the order both endpoints agree on) into one send
// payload. The second result reports whether the payload came from the
// World's scratch pool and must be released (after the send completes);
// single-block payloads alias buf and phantoms carry no storage, so
// neither is pooled. The residue class is iterated directly — no block-ID
// slice is materialized — keeping the shift schedule allocation-free in
// steady state.
func (c *Comm) packBlocks(buf Buffer, n, p, cls, m int) (Buffer, bool) {
	if cls+m >= p { // single block in the class
		lo, hi := blockRange(n, p, cls)
		return buf.Slice(lo, hi), false
	}
	if buf.IsPhantom() {
		var total int64
		for b := cls; b < p; b += m {
			lo, hi := blockRange(n, p, b)
			total += buf.Slice(lo, hi).Bytes()
		}
		return Phantom(total), false
	}
	out := c.p.w.getF64(classElems(n, p, cls, m))
	off := 0
	for b := cls; b < p; b += m {
		lo, hi := blockRange(n, p, b)
		copy(out[off:], buf.Data[lo:hi])
		off += hi - lo
	}
	return F64(out), true
}

// allreduceShift is the mixed-radix shift schedule from the allreduce
// generalization of Kolmakov & Zhang: write p = f1*f2*...*fm (prime
// factors) and each rank in mixed radix. The reduce-scatter runs one phase
// per factor; in the phase of stride s and radix f, the f ranks that differ
// only in that digit directly exchange, over f-1 rounds, the blocks each
// partner will own — block b goes to the partner whose residue matches
// b mod (s*f) — shrinking each rank's owned set from {b = rank mod s} to
// {b = rank mod s*f}. After all phases rank r owns exactly block r; the
// allgather mirrors the phases in reverse. Total volume matches the ring
// (2(p-1)/p per rank) but in sum_i(f_i - 1) rounds instead of 2(p-1), with
// direct (shifted) partners instead of neighbors.
func (c *Comm) allreduceShift(sp *sim.Proc, buf Buffer, op Op, tagBase int) {
	p := c.Size()
	n := buf.Len()
	if c.shiftFactors == nil {
		c.shiftFactors = factorize(p)
	}
	factors := c.shiftFactors
	tag := tagBase

	s := 1
	for _, f := range factors {
		d := (c.rank / s) % f
		m := s * f
		for r := 1; r < f; r++ {
			sendPeer := c.rank + ((d+r)%f-d)*s
			recvPeer := c.rank + ((d-r+f)%f-d)*s
			recvCls := c.rank % m
			tmp := c.p.w.getScratch(buf, classElems(n, p, recvCls, m))
			pk, pooled := c.packBlocks(buf, n, p, sendPeer%m, m)
			sreq := c.isendOn(sp, sendPeer, tag, pk)
			c.recvOn(sp, recvPeer, tag, tmp)
			off := 0
			for b := recvCls; b < p; b += m {
				lo, hi := blockRange(n, p, b)
				keep := buf.Slice(lo, hi)
				c.chargeReduceArith(sp, keep.Bytes())
				combineInto(keep, tmp.Slice(off, off+hi-lo), op)
				off += hi - lo
			}
			c.p.w.releaseScratch(tmp)
			sreq.waitFree(sp)
			if pooled {
				c.p.w.releaseScratch(pk)
			}
			tag++
		}
		s = m
	}

	for i := len(factors) - 1; i >= 0; i-- {
		f := factors[i]
		s /= f
		d := (c.rank / s) % f
		m := s * f
		for r := 1; r < f; r++ {
			sendPeer := c.rank + ((d+r)%f-d)*s
			recvPeer := c.rank + ((d-r+f)%f-d)*s
			theirCls := recvPeer % m
			tmp := c.p.w.getScratch(buf, classElems(n, p, theirCls, m))
			pk, pooled := c.packBlocks(buf, n, p, c.rank%m, m)
			c.exchange(sp, sendPeer, recvPeer, tag, pk, tmp)
			off := 0
			for b := theirCls; b < p; b += m {
				lo, hi := blockRange(n, p, b)
				buf.Slice(lo, hi).copyFrom(tmp.Slice(off, off+hi-lo))
				off += hi - lo
			}
			c.p.w.releaseScratch(tmp)
			if pooled {
				c.p.w.releaseScratch(pk)
			}
			tag++
		}
	}
}
