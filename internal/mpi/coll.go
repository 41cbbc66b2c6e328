package mpi

import (
	"fmt"

	"commoverlap/internal/sim"
)

// Collective message tags live far above the application tag space. Each
// collective call on a communicator gets a block of collTagStride tags, so
// concurrent collectives on duplicated communicators (and back-to-back
// collectives on one communicator) never cross-match. MPI's requirement
// that all ranks issue collectives on a communicator in the same order makes
// the per-rank call counters agree.
const (
	collTagBase   = 1 << 24
	collTagStride = 4096
)

// Algorithm switch-over defaults, following the MPICH defaults in spirit.
// Each World snapshots them at creation into its BcastLongMsg and
// ReduceLongMsg fields, so ablations and the auto-tuner can vary the
// switch points per job — concurrently, without mutating shared state.
const (
	// DefaultBcastLongMsg: above this byte count Bcast uses binomial
	// scatter + ring allgather instead of a binomial tree.
	DefaultBcastLongMsg int64 = 128 << 10
	// DefaultReduceLongMsg: above this byte count Reduce/Allreduce use
	// Rabenseifner's reduce-scatter-based algorithms instead of binomial
	// trees / recursive doubling.
	DefaultReduceLongMsg int64 = 64 << 10
)

// postOverhead is the fixed CPU cost of issuing a (nonblocking) operation.
const postOverhead = 3e-6

// bcastStageFactor scales the posting/staging cost of a broadcast root
// relative to a reduction (broadcast implementations stage lazily).
const bcastStageFactor = 3.0

func (c *Comm) nextCollTag() int {
	t := collTagBase + c.collSeq*collTagStride
	c.collSeq++
	if c.Size() >= collTagStride/2 {
		panic(fmt.Sprintf("mpi: communicator of %d ranks exceeds collective tag stride", c.Size()))
	}
	return t
}

// chargeReduceArith blocks sp while the rank's CPU combines bytes of
// reduction operands.
func (c *Comm) chargeReduceArith(sp *sim.Proc, bytes int64) {
	c.p.w.Net.ChargeCPU(sp, c.p.st.ep, float64(bytes)/c.p.w.Net.Cfg.ReduceRate)
}

// post takes the call's collective tag, then blocks the calling rank while
// its CPU stages/packs bytes of collective buffer. This is the "posting
// cost" visible in the paper's Fig. 6: it is paid inline by the caller, so
// posting several nonblocking collectives serializes their staging on the
// rank's CPU.
func (c *Comm) post(bytes int64, factor float64) int {
	tag := c.nextCollTag()
	rate := c.p.w.Net.Cfg.StageRate * factor
	c.p.w.Net.ChargeCPU(c.p.sp, c.p.st.ep, postOverhead+float64(bytes)/rate)
	return tag
}

// postBcast posts a broadcast: only the root stages the payload.
func (c *Comm) postBcast(root int, buf Buffer) int {
	if c.rank == root {
		return c.post(buf.Bytes(), bcastStageFactor)
	}
	return c.post(0, 1)
}

// ---------------------------------------------------------------------------
// Round kinds
// ---------------------------------------------------------------------------

// The collective schedules are built from three kinds of round, besides
// the plain sends and receives of their trees; only the shift
// reduce-scatter, which charges each block it combines, writes its own.
// Each kind keeps a fixed order of posts, waits and CPU charges, and that
// order fixes the run's events.

// exchange sends send to dst while receiving recv from src: isend, then a
// blocking receive, then a wait for the send.
func (c *Comm) exchange(sp *sim.Proc, dst, src, tag int, send, recv Buffer) {
	sreq := c.isendOn(sp, dst, tag, send)
	c.recvOn(sp, src, tag, recv)
	sreq.waitFree(sp)
}

// exchangeReduce sends send to dst while receiving a partial result from
// src into pooled scratch, charges and combines it into keep, and only then
// waits for the send. send and keep never overlap, so combining before the
// send completes cannot corrupt a rendezvous send's capture of its payload.
func (c *Comm) exchangeReduce(sp *sim.Proc, dst, src, tag int, send, keep Buffer, op Op) {
	tmp := c.p.w.getScratch(keep, keep.Len())
	sreq := c.isendOn(sp, dst, tag, send)
	c.recvOn(sp, src, tag, tmp)
	c.chargeReduceArith(sp, keep.Bytes())
	combineInto(keep, tmp, op)
	c.p.w.releaseScratch(tmp)
	sreq.waitFree(sp)
}

// recvReduce receives a partial result from src into pooled scratch and
// charges and combines it into acc.
func (c *Comm) recvReduce(sp *sim.Proc, src, tag int, acc Buffer, op Op) {
	tmp := c.p.w.getScratch(acc, acc.Len())
	c.recvOn(sp, src, tag, tmp)
	c.chargeReduceArith(sp, acc.Bytes())
	combineInto(acc, tmp, op)
	c.p.w.releaseScratch(tmp)
}

// ringAllgather circulates p pieces around the rank ring in p-1 exchange
// rounds: in round k every rank sends piece start-k (mod p) to its right
// neighbour, rank+1, and receives piece start-k-1 from its left, on tag
// tag+k.
func (c *Comm) ringAllgather(sp *sim.Proc, piece func(int) Buffer, start, tag int) {
	p := c.Size()
	right, left := (c.rank+1)%p, (c.rank-1+p)%p
	for k := 0; k < p-1; k++ {
		c.exchange(sp, right, left, tag+k, piece((start-k+p)%p), piece((start-k-1+p)%p))
	}
}

// ringReduceScatter runs p-1 exchangeReduce rounds around the rank ring: in
// round k every rank sends its running partial sum of piece start-k (mod p)
// to its right neighbour and combines piece start-k-1 arriving from its
// left, on tag tag+k, so afterwards this rank holds the complete sum of
// piece start+1. The sent and combined pieces differ in every round.
func (c *Comm) ringReduceScatter(sp *sim.Proc, piece func(int) Buffer, start, tag int, op Op) {
	p := c.Size()
	right, left := (c.rank+1)%p, (c.rank-1+p)%p
	for k := 0; k < p-1; k++ {
		c.exchangeReduce(sp, right, left, tag+k, piece((start-k+p)%p), piece((start-k-1+p)%p), op)
	}
}

func (c *Comm) abs(vr, root int) int { return (vr + root) % c.Size() }

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

// bcastRun executes the broadcast schedule on behalf of sp. buf is the full
// payload on the root and the destination buffer elsewhere.
func (c *Comm) bcastRun(sp *sim.Proc, root int, buf Buffer, tag int) {
	p := c.Size()
	if p == 1 {
		return
	}
	switch c.p.w.BcastAlg {
	case AlgAuto:
		if buf.Bytes() <= c.p.w.BcastLongMsg || p == 2 {
			c.bcastBinomial(sp, root, buf, tag)
			return
		}
		c.bcastScatterAllgather(sp, root, buf, tag)
	case AlgBinomial:
		c.bcastBinomial(sp, root, buf, tag)
	case AlgScatterAllgather:
		c.bcastScatterAllgather(sp, root, buf, tag)
	default:
		panic(fmt.Sprintf("mpi: unknown bcast algorithm %q", c.p.w.BcastAlg))
	}
}

// bcastBinomial is the classic binomial-tree broadcast: log2(p) rounds,
// full payload per hop.
func (c *Comm) bcastBinomial(sp *sim.Proc, root int, buf Buffer, tag int) {
	p := c.Size()
	vr := (c.rank - root + p) % p
	mask := 1
	for ; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			c.recvOn(sp, c.abs(vr-mask, root), tag, buf)
			break
		}
	}
	mask >>= 1
	for ; mask > 0; mask >>= 1 {
		if vr+mask < p {
			c.sendOn(sp, c.abs(vr+mask, root), tag, buf)
		}
	}
}

// bcastScatterAllgather is the van de Geijn long-message broadcast: a
// binomial scatter of ceil(n/p)-sized pieces followed by a ring allgather.
// Total volume per rank ~ 2(p-1)/p * n, the cost the paper's model assumes.
func (c *Comm) bcastScatterAllgather(sp *sim.Proc, root int, buf Buffer, tag int) {
	p := c.Size()
	n := buf.Len()
	seg := (n + p - 1) / p
	pieceLo := func(i int) int { return min(i*seg, n) }
	piece := func(i int) Buffer { return buf.Slice(pieceLo(i), min((i+1)*seg, n)) }

	vr := (c.rank - root + p) % p

	// Binomial scatter (MPICH scatter_for_bcast): rank vr ends up holding
	// elements [vr*seg, n) clipped to its subtree, i.e. finally piece vr.
	curr := 0
	if vr == 0 {
		curr = n
	}
	mask := 1
	for ; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			recvElems := n - vr*seg
			if recvElems <= 0 {
				curr = 0
			} else {
				st := c.recvOn(sp, c.abs(vr-mask, root), tag, buf.Slice(pieceLo(vr), n))
				curr = int(st.Bytes / 8)
			}
			break
		}
	}
	mask >>= 1
	for ; mask > 0; mask >>= 1 {
		if vr+mask < p {
			sendElems := curr - seg*mask
			if sendElems > 0 {
				lo := pieceLo(vr + mask)
				c.sendOn(sp, c.abs(vr+mask, root), tag, buf.Slice(lo, lo+sendElems))
				curr -= sendElems
			}
		}
	}

	// Ring allgather: pieces are indexed by virtual rank, so in round k each
	// rank forwards the piece it holds for virtual index (vr-k) to its right
	// neighbor (virtual and real ranks share their neighbors).
	c.ringAllgather(sp, piece, vr, tag+1)
}

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

// reduceRun executes the reduction schedule. sendBuf is each rank's
// contribution; recvBuf receives the result on the root (ignored elsewhere;
// pass Buffer{}).
func (c *Comm) reduceRun(sp *sim.Proc, root int, sendBuf, recvBuf Buffer, op Op, tag int) {
	p := c.Size()
	if p == 1 {
		recvBuf.copyFrom(sendBuf)
		return
	}
	switch c.p.w.ReduceAlg {
	case AlgAuto:
		if sendBuf.Bytes() <= c.p.w.ReduceLongMsg || p == 2 {
			c.reduceBinomial(sp, root, sendBuf, recvBuf, op, tag)
			return
		}
		c.reduceRabenseifner(sp, root, sendBuf, recvBuf, op, tag)
	case AlgBinomial:
		c.reduceBinomial(sp, root, sendBuf, recvBuf, op, tag)
	case AlgRabenseifner:
		c.reduceRabenseifner(sp, root, sendBuf, recvBuf, op, tag)
	default:
		panic(fmt.Sprintf("mpi: unknown reduce algorithm %q", c.p.w.ReduceAlg))
	}
}

// reduceBinomial combines up a binomial tree rooted (virtually) at root:
// log2(p) rounds, full payload per hop, combine at every internal vertex.
func (c *Comm) reduceBinomial(sp *sim.Proc, root int, sendBuf, recvBuf Buffer, op Op, tag int) {
	p := c.Size()
	w := c.p.w
	vr := (c.rank - root + p) % p
	acc := w.cloneBuf(sendBuf)
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask == 0 {
			srcVr := vr | mask
			if srcVr < p {
				c.recvReduce(sp, c.abs(srcVr, root), tag, acc, op)
			}
		} else {
			c.sendOn(sp, c.abs(vr-mask, root), tag, acc)
			w.releaseScratch(acc)
			return
		}
	}
	recvBuf.copyFrom(acc) // only the root reaches here
	w.releaseScratch(acc)
}

// rsFold handles the non-power-of-two preamble of Rabenseifner's
// algorithms: the first 2*rem ranks pair up, odd ranks send their data to
// the even partner and drop out, leaving pof2 participants with "new ranks".
// It returns (newrank, pof2); newrank == -1 for ranks that dropped out.
func (c *Comm) rsFold(sp *sim.Proc, acc Buffer, op Op, tag int) (newrank, pof2 int) {
	p := c.Size()
	pof2 = 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	switch {
	case c.rank < 2*rem && c.rank%2 != 0:
		c.sendOn(sp, c.rank-1, tag, acc)
		return -1, pof2
	case c.rank < 2*rem:
		c.recvReduce(sp, c.rank+1, tag, acc, op)
		return c.rank / 2, pof2
	default:
		return c.rank - rem, pof2
	}
}

// rsOldRank maps a post-fold new rank back to a comm rank.
func rsOldRank(newrank, p, pof2 int) int {
	rem := p - pof2
	if newrank < rem {
		return newrank * 2
	}
	return newrank + rem
}

// rsRange returns the element range of n that new rank nr owns after the
// recursive-halving reduce-scatter over pof2 ranks (keep-lower-half when the
// current bit is 0, scanning bits high to low).
func rsRange(n, pof2, nr int) (lo, hi int) {
	lo, hi = 0, n
	for mask := pof2 >> 1; mask > 0; mask >>= 1 {
		mid := lo + (hi-lo)/2
		if nr&mask == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// rsHalving performs the recursive-halving reduce-scatter among the pof2
// post-fold ranks, accumulating into acc. It returns the element range the
// caller owns afterwards.
func (c *Comm) rsHalving(sp *sim.Proc, acc Buffer, op Op, newrank, pof2, tagBase int) (lo, hi int) {
	p := c.Size()
	lo, hi = 0, acc.Len()
	round := 0
	for mask := pof2 >> 1; mask > 0; mask >>= 1 {
		partner := rsOldRank(newrank^mask, p, pof2)
		mid := lo + (hi-lo)/2
		var keepLo, keepHi, sendLo, sendHi int
		if newrank&mask == 0 {
			keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
		} else {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		c.exchangeReduce(sp, partner, partner, tagBase+round, acc.Slice(sendLo, sendHi), acc.Slice(keepLo, keepHi), op)
		lo, hi = keepLo, keepHi
		round++
	}
	return lo, hi
}

// reduceRabenseifner is the long-message reduction: fold to a power of two,
// recursive-halving reduce-scatter, then gather the scattered pieces to the
// root. Volume per rank ~ 2(p-1)/p * n, matching the paper's cost model.
// The final gather sends each piece directly to the root: the root-side
// volume equals the binomial gather's and the pieces pipeline through the
// simulated fabric.
func (c *Comm) reduceRabenseifner(sp *sim.Proc, root int, sendBuf, recvBuf Buffer, op Op, tagBase int) {
	p := c.Size()
	w := c.p.w
	n := sendBuf.Len()
	acc := w.cloneBuf(sendBuf)
	newrank, pof2 := c.rsFold(sp, acc, op, tagBase)

	var myLo, myHi int
	if newrank >= 0 {
		myLo, myHi = c.rsHalving(sp, acc, op, newrank, pof2, tagBase+1)
	}

	gatherTag := tagBase + 40
	rem := p - pof2
	rootNew := -1
	if root >= 2*rem {
		rootNew = root - rem
	} else if root%2 == 0 {
		rootNew = root / 2
	}
	if c.rank == root {
		if rootNew >= 0 && myHi > myLo {
			recvBuf.Slice(myLo, myHi).copyFrom(acc.Slice(myLo, myHi))
		}
		for nr := 0; nr < pof2; nr++ {
			if nr == rootNew {
				continue
			}
			lo, hi := rsRange(n, pof2, nr)
			if hi <= lo {
				continue
			}
			c.recvOn(sp, rsOldRank(nr, p, pof2), gatherTag, recvBuf.Slice(lo, hi))
		}
		w.releaseScratch(acc)
		return
	}
	if newrank >= 0 && myHi > myLo {
		c.sendOn(sp, root, gatherTag, acc.Slice(myLo, myHi))
	}
	w.releaseScratch(acc)
}

// ---------------------------------------------------------------------------
// Allreduce
// ---------------------------------------------------------------------------

// allreduceRun reduces buf across all ranks, leaving the result in buf
// everywhere (in-place, MPI_IN_PLACE style).
func (c *Comm) allreduceRun(sp *sim.Proc, buf Buffer, op Op, tagBase int) {
	p := c.Size()
	if p == 1 {
		return
	}
	switch c.p.w.AllreduceAlg {
	case AlgAuto:
		if buf.Bytes() <= c.p.w.ReduceLongMsg {
			c.allreduceDoubling(sp, buf, op, tagBase, false)
			return
		}
		c.allreduceRabenseifner(sp, buf, op, tagBase)
	case AlgRecDouble:
		c.allreduceDoubling(sp, buf, op, tagBase, false)
	case AlgRabenseifner:
		c.allreduceRabenseifner(sp, buf, op, tagBase)
	case AlgRing:
		c.allreduceRing(sp, buf, op, tagBase)
	case AlgBruck:
		c.allreduceDoubling(sp, buf, op, tagBase, true)
	case AlgShift:
		c.allreduceShift(sp, buf, op, tagBase)
	default:
		panic(fmt.Sprintf("mpi: unknown allreduce algorithm %q", c.p.w.AllreduceAlg))
	}
}

// allreduceDoubling: fold to a power of two, then log2(pof2) rounds in
// which every rank sends its full accumulator to one partner at distance
// d = 2^k and combines the accumulator arriving from another, then unfold.
// Recursive doubling pairs the partners (newrank^d, both directions);
// shifted is Bruck's dissemination pattern, sending to newrank+d and
// receiving from newrank-d, so that after round k the accumulator covers
// the 2^(k+1) ranks ending at its own.
func (c *Comm) allreduceDoubling(sp *sim.Proc, buf Buffer, op Op, tagBase int, shifted bool) {
	p := c.Size()
	newrank, pof2 := c.rsFold(sp, buf, op, tagBase)
	if newrank >= 0 {
		round := 1
		for d := 1; d < pof2; d <<= 1 {
			dst, src := newrank^d, newrank^d
			if shifted {
				dst, src = (newrank+d)%pof2, (newrank-d+pof2)%pof2
			}
			tmp := c.p.w.getScratch(buf, buf.Len())
			// My receive completing does not mean my send has captured its
			// payload: a rendezvous send only clones buf when the partner's
			// CTS arrives, and under latency jitter that control message can
			// trail the partner's bulk data (with shifted partners the
			// receive says nothing about the send at all). The whole
			// accumulator is in flight, so exchange waits for the send
			// before it is mutated, or the partner combines post-combine
			// values.
			c.exchange(sp, rsOldRank(dst, p, pof2), rsOldRank(src, p, pof2), tagBase+round, buf, tmp)
			c.chargeReduceArith(sp, buf.Bytes())
			combineInto(buf, tmp, op)
			c.p.w.releaseScratch(tmp)
			round++
		}
	}
	c.rsUnfold(sp, buf, pof2, tagBase+30)
}

// rsUnfold returns the result to the ranks that dropped out in rsFold.
func (c *Comm) rsUnfold(sp *sim.Proc, buf Buffer, pof2, tag int) {
	rem := c.Size() - pof2
	if c.rank < 2*rem {
		if c.rank%2 == 0 {
			c.sendOn(sp, c.rank+1, tag, buf)
		} else {
			c.recvOn(sp, c.rank-1, tag, buf)
		}
	}
}

// allreduceRabenseifner: fold, recursive-halving reduce-scatter, then a
// recursive-doubling allgather that unwinds the halving ranges, then unfold.
func (c *Comm) allreduceRabenseifner(sp *sim.Proc, buf Buffer, op Op, tagBase int) {
	p := c.Size()
	n := buf.Len()
	newrank, pof2 := c.rsFold(sp, buf, op, tagBase)

	if newrank >= 0 {
		lo, hi := c.rsHalving(sp, buf, op, newrank, pof2, tagBase+1)
		// Allgather by unwinding: at each level exchange my accumulated
		// range with the partner holding the sibling half.
		round := 20
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := rsOldRank(newrank^mask, p, pof2)
			// The sibling range at this level: recompute the enclosing range
			// of the pair and take the complement of mine.
			plo, phi := enclosingRange(n, pof2, newrank, mask)
			mid := plo + (phi-plo)/2
			var sibLo, sibHi int
			if newrank&mask == 0 {
				sibLo, sibHi = mid, phi // I hold the lower half
			} else {
				sibLo, sibHi = plo, mid
			}
			sib := Buffer{}
			if sibHi > sibLo {
				sib = buf.Slice(sibLo, sibHi)
			}
			c.exchange(sp, partner, partner, tagBase+round, buf.Slice(lo, hi), sib)
			lo, hi = plo, phi
			round++
		}
	}
	c.rsUnfold(sp, buf, pof2, tagBase+50)
}

// enclosingRange returns the element range shared by newrank and its
// partner at the given mask level, i.e. the range obtained by walking the
// halving tree only for bits strictly above mask.
func enclosingRange(n, pof2, nr, mask int) (lo, hi int) {
	lo, hi = 0, n
	for m := pof2 >> 1; m > mask; m >>= 1 {
		mid := lo + (hi-lo)/2
		if nr&m == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

// barrierRun is the dissemination barrier: ceil(log2 p) rounds of zero-byte
// messages.
func (c *Comm) barrierRun(sp *sim.Proc, tagBase int) {
	p := c.Size()
	round := 0
	for mask := 1; mask < p; mask <<= 1 {
		c.exchange(sp, (c.rank+mask)%p, (c.rank-mask+p)%p, tagBase+round, Buffer{}, Buffer{})
		round++
	}
}

// ---------------------------------------------------------------------------
// Blocking public API
// ---------------------------------------------------------------------------

// Bcast broadcasts buf from root to every rank of the communicator.
func (c *Comm) Bcast(root int, buf Buffer) {
	c.bcastRun(c.p.sp, root, buf, c.postBcast(root, buf))
}

// Reduce combines sendBuf from every rank under op and stores the result in
// recvBuf on root (recvBuf is ignored on other ranks; pass Buffer{}).
func (c *Comm) Reduce(root int, sendBuf, recvBuf Buffer, op Op) {
	c.reduceRun(c.p.sp, root, sendBuf, recvBuf, op, c.post(sendBuf.Bytes(), 1))
}

// Allreduce combines buf across all ranks in place.
func (c *Comm) Allreduce(buf Buffer, op Op) {
	c.allreduceRun(c.p.sp, buf, op, c.post(buf.Bytes(), 1))
}

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	c.barrierRun(c.p.sp, c.nextCollTag())
}
