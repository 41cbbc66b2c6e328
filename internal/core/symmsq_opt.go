package core

import (
	"commoverlap/internal/mat"
	"commoverlap/internal/mpi"
)

// symmSquareCubeOptimized is Algorithm 5: the baseline kernel with every
// communication phase pipelined and overlapped using the nonblocking
// overlap technique. Each block is divided into contiguous row bands; band
// c travels on the c-th duplicated communicator, so
//
//   - the grid broadcast of A overlaps the row broadcast of B: the row root
//     re-broadcasts band c as soon as it arrives (lines 1-8);
//   - the column reduction of C overlaps the row broadcast of D²: the
//     reduction root forwards band c the moment it is reduced (lines 10-17);
//   - the D³ reduction overlaps the point-to-point shipments of D² and D³
//     to plane 0 (lines 19-27).
//
// The A and B broadcasts run at width Config.NDupAB and every later phase
// at NDup. The band-by-band handoff between two overlapped phases needs
// both at the same width — band c of one is band c of the other — and
// each overlapped pair lies on one side of that split, so it shares a
// width by construction. With both widths 1 the schedule degenerates to
// Algorithm 4 with nonblocking calls.
func (e *Env) symmSquareCubeOptimized(d *mat.Matrix) (d2res, d3res *mat.Matrix) {
	m := e.M
	i, j, k := m.I, m.J, m.K
	bd := e.blocks()
	bi, bj, bk := bd.Count(i), bd.Count(j), bd.Count(k)
	ndAB, nd := e.Cfg.NDupAB, e.Cfg.NDup

	// Lines 1-3: post the grid broadcasts of the A bands.
	e.trace("start")
	a := e.newBlock(bi, bj)
	if k == 0 && d != nil {
		a.CopyFrom(d)
	}
	reqA := make([]*mpi.Request, ndAB)
	for c := 0; c < ndAB; c++ {
		reqA[c] = e.GridDup[c].Ibcast(0, e.bandBufN(a, c, ndAB))
	}

	// Lines 4-7: row broadcasts of D_{k,j} (root i == k). The root
	// pipelines: it waits for band c of its A block (which is D_{k,j}) and
	// immediately re-broadcasts it. Other ranks post their receive sides up
	// front.
	var braw *mat.Matrix
	reqB := make([]*mpi.Request, ndAB)
	if i == k {
		braw = a
		for c := 0; c < ndAB; c++ {
			reqA[c].Wait()
			reqB[c] = e.RowDup[c].Ibcast(k, e.bandBufN(a, c, ndAB))
		}
	} else {
		braw = e.newBlock(bk, bj)
		for c := 0; c < ndAB; c++ {
			reqB[c] = e.RowDup[c].Ibcast(k, e.bandBufN(braw, c, ndAB))
		}
	}

	// Line 8: wait for all outstanding broadcasts, then build B locally.
	mpi.Waitall(reqA...)
	mpi.Waitall(reqB...)
	e.trace("bcastAB-done")
	b := braw.Transpose()

	// Line 9: C := A x B.
	c1 := e.newBlock(bi, bk)
	e.gemm(a, b, c1, false)
	e.trace("gemm1-done")

	// Lines 10-12: post the column reductions of the C bands toward
	// D²_{i,k} on (i,i,k) (col-comm root i).
	var d2loc *mat.Matrix
	if j == i {
		d2loc = e.newBlock(bi, bk)
	}
	reqR2 := make([]*mpi.Request, nd)
	for c := 0; c < nd; c++ {
		recv := mpi.Buffer{}
		if j == i {
			recv = e.bandBufN(d2loc, c, nd)
		}
		reqR2[c] = e.ColDup[c].Ireduce(i, e.bandBufN(c1, c, nd), recv, mpi.OpSum)
	}

	// Lines 13-16: the reduction root re-broadcasts each D² band across the
	// row (root rank j) as soon as it completes; other ranks pre-post.
	var b2 *mat.Matrix
	reqB2 := make([]*mpi.Request, nd)
	if i == j {
		b2 = d2loc
		for c := 0; c < nd; c++ {
			reqR2[c].Wait()
			reqB2[c] = e.RowDup[c].Ibcast(j, e.bandBufN(d2loc, c, nd))
		}
	} else {
		b2 = e.newBlock(bj, bk)
		for c := 0; c < nd; c++ {
			reqB2[c] = e.RowDup[c].Ibcast(j, e.bandBufN(b2, c, nd))
		}
	}

	// Line 17: wait for the broadcasts; also drain this rank's reduction
	// contributions so C may be overwritten by the next multiplication.
	mpi.Waitall(reqB2...)
	mpi.Waitall(reqR2...)
	e.trace("bcastB2-done")

	// Line 18: C := A x B.
	e.gemm(a, b2, c1, false)
	e.trace("gemm2-done")

	// Lines 19-21: post the column reductions toward D³_{i,k} on (i,k,k).
	var d3loc *mat.Matrix
	if j == k {
		d3loc = e.newBlock(bi, bk)
	}
	reqR3 := make([]*mpi.Request, nd)
	for c := 0; c < nd; c++ {
		recv := mpi.Buffer{}
		if j == k {
			recv = e.bandBufN(d3loc, c, nd)
		}
		reqR3[c] = e.ColDup[c].Ireduce(k, e.bandBufN(c1, c, nd), recv, mpi.OpSum)
	}

	e.trace("r3-posted")
	// Lines 22-27: overlap the D³ reductions with the shipments of D² (over
	// the duplicated world communicators) and D³ (grid communicators) to
	// plane 0.
	if k == 0 {
		d2res = e.newBlock(bi, bj)
		d3res = e.newBlock(bi, bj)
	}
	var pending []*mpi.Request
	if k == 0 {
		src2 := m.Dims.Rank(i, i, j) // holder of D²_{i,j}
		if src2 != m.World.Rank() {
			for c := 0; c < nd; c++ {
				pending = append(pending, e.WorldDup[c].Irecv(src2, tagD2, e.bandBufN(d2res, c, nd)))
			}
		}
		if j != 0 { // D³_{i,j} arrives from grid rank j; j == 0 is local
			for c := 0; c < nd; c++ {
				pending = append(pending, e.GridDup[c].Irecv(j, tagD3, e.bandBufN(d3res, c, nd)))
			}
		}
	}
	if i == j {
		dst := m.Dims.Rank(i, k, 0)
		if dst == m.World.Rank() {
			d2res.CopyFrom(d2loc)
		} else {
			for c := 0; c < nd; c++ {
				pending = append(pending, e.WorldDup[c].Isend(dst, tagD2, e.bandBufN(d2loc, c, nd)))
			}
		}
	}
	if j == k {
		if k == 0 {
			mpi.Waitall(reqR3...)
			d3res.CopyFrom(d3loc)
		} else {
			for c := 0; c < nd; c++ {
				reqR3[c].Wait()
				pending = append(pending, e.GridDup[c].Isend(0, tagD3, e.bandBufN(d3loc, c, nd)))
			}
		}
		e.trace("r3-root-done")
	}
	mpi.Waitall(pending...)
	e.trace("pending-done")
	mpi.Waitall(reqR3...)
	e.trace("ship-done")
	return d2res, d3res
}
