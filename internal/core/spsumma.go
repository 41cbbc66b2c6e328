package core

import (
	"fmt"

	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/sparse"
)

// SpEnv is the sparse SymmSquareCube kernel the paper's conclusion gestures
// at: SUMMA over CSR blocks (the SpSUMMA idea of Buluç & Gilbert from the
// related work), with optional magnitude thresholding after each multiply
// (the linear-scaling-DFT truncation) and the same nonblocking-overlap
// treatment as the dense kernels — panel t+1's broadcasts are in flight,
// on duplicated communicators, while panel t's local SpGEMM runs.
//
// Sparse blocks have data-dependent sizes, so each panel broadcast is a
// two-stage protocol: a one-word header (encoded length) followed by the
// payload; the pipelined schedule prefetches headers for all panels up
// front and payloads one panel ahead.
type SpEnv struct {
	kernelEnv

	// Tol is the post-multiply threshold (0 keeps everything: exact sparse
	// arithmetic).
	Tol float64

	RowDup, ColDup []*mpi.Comm
}

// spgemmEfficiency derates the node's dense-GEMM rate for sparse
// multiplication, which is memory-bound (irregular gathers, no blocking).
const spgemmEfficiency = 0.05

// NewSpEnv builds the sparse kernel for dimension n on a q x q mesh with
// ndup duplicated communicators for the pipelined schedule. Every rank must
// call it with identical arguments.
func NewSpEnv(p *mpi.Proc, q, n, ndup, ppn int, tol float64) (*SpEnv, error) {
	ke, err := newKernelEnv(p, p.World(), mesh.Dims{Q: q, C: 1}, Config{N: n, NDup: ndup, PPN: ppn})
	if err != nil {
		return nil, err
	}
	e := &SpEnv{kernelEnv: ke, Tol: tol}
	e.RowDup = e.M.Row.DupN(ndup)
	e.ColDup = e.M.Col.DupN(ndup)
	return e, nil
}

// spgemm multiplies and charges virtual time.
func (e *SpEnv) spgemm(a, b *sparse.CSR) *sparse.CSR {
	t0 := e.P.Now()
	e.P.Compute(sparse.SpGEMMFlops(a, b)/spgemmEfficiency, e.Cfg.PPN)
	out := sparse.SpGEMM(a, b)
	e.GemmTime += e.P.Now() - t0
	return out
}

// panelBcast broadcasts the variable-size block blk (valid at root) on
// comm: header then payload, blocking.
func panelBcast(comm *mpi.Comm, root int, blk *sparse.CSR) *sparse.CSR {
	hdr := []float64{0}
	var payload []float64
	if comm.Rank() == root {
		payload = blk.Encode()
		hdr[0] = float64(len(payload))
	}
	comm.Bcast(root, mpi.F64(hdr))
	if comm.Rank() != root {
		payload = make([]float64, int(hdr[0]))
	}
	comm.Bcast(root, mpi.F64(payload))
	if comm.Rank() == root {
		return blk
	}
	out, err := sparse.Decode(payload)
	if err != nil {
		panic(fmt.Sprintf("core: sparse panel decode: %v", err))
	}
	return out
}

// spSumma computes C = A x B (+ threshold) where this rank holds aBlk and
// bBlk in the q x q block-sparse distribution.
func (e *SpEnv) spSumma(aBlk, bBlk *sparse.CSR, pipelined bool) *sparse.CSR {
	m := e.M
	q := m.Dims.Q
	bd := e.blocks()
	c := sparse.NewEmpty(bd.Count(m.I), bd.Count(m.J))

	if !pipelined {
		for t := 0; t < q; t++ {
			ap := panelBcastMaybe(e.M.Col, t, m.J == t, aBlk)
			bp := panelBcastMaybe(e.M.Row, t, m.I == t, bBlk)
			c = sparse.Add(c, 1, e.spgemm(ap, bp))
		}
	} else {
		c = e.spSummaPipelined(aBlk, bBlk, c)
	}
	if e.Tol > 0 {
		c.Threshold(e.Tol)
	}
	return c
}

func panelBcastMaybe(comm *mpi.Comm, root int, isRoot bool, blk *sparse.CSR) *sparse.CSR {
	if isRoot {
		return panelBcast(comm, root, blk)
	}
	return panelBcast(comm, root, nil)
}

// spPanelState tracks one in-flight panel broadcast.
type spPanelState struct {
	hdr     []float64
	hdrReq  *mpi.Request
	payload []float64
	payReq  *mpi.Request
	isRoot  bool
	blk     *sparse.CSR // root's block
}

// postHeader starts the header broadcast for panel t on comm.
func spPostHeader(comm *mpi.Comm, root int, isRoot bool, blk *sparse.CSR) *spPanelState {
	st := &spPanelState{hdr: []float64{0}, isRoot: isRoot, blk: blk}
	if isRoot {
		st.payload = blk.Encode()
		st.hdr[0] = float64(len(st.payload))
	}
	st.hdrReq = comm.Ibcast(root, mpi.F64(st.hdr))
	return st
}

// postPayload waits the header and starts the payload broadcast.
func (st *spPanelState) postPayload(comm *mpi.Comm, root int) {
	st.hdrReq.Wait()
	if !st.isRoot {
		st.payload = make([]float64, int(st.hdr[0]))
	}
	st.payReq = comm.Ibcast(root, mpi.F64(st.payload))
}

// finish waits the payload and decodes.
func (st *spPanelState) finish() *sparse.CSR {
	st.payReq.Wait()
	if st.isRoot {
		return st.blk
	}
	out, err := sparse.Decode(st.payload)
	if err != nil {
		panic(fmt.Sprintf("core: sparse panel decode: %v", err))
	}
	return out
}

// spSummaPipelined overlaps panel t+1's broadcasts with panel t's SpGEMM.
func (e *SpEnv) spSummaPipelined(aBlk, bBlk *sparse.CSR, c *sparse.CSR) *sparse.CSR {
	m := e.M
	q := m.Dims.Q
	nd := len(e.RowDup)

	aSt := make([]*spPanelState, q)
	bSt := make([]*spPanelState, q)
	// Headers for every panel go out immediately (one word each).
	for t := 0; t < q; t++ {
		aSt[t] = spPostHeader(e.ColDup[t%nd], t, m.J == t, aBlk)
		bSt[t] = spPostHeader(e.RowDup[t%nd], t, m.I == t, bBlk)
	}
	post := func(t int) {
		aSt[t].postPayload(e.ColDup[t%nd], t)
		bSt[t].postPayload(e.RowDup[t%nd], t)
	}
	post(0)
	for t := 0; t < q; t++ {
		if t+1 < q {
			post(t + 1)
		}
		ap := aSt[t].finish()
		bp := bSt[t].finish()
		c = sparse.Add(c, 1, e.spgemm(ap, bp))
	}
	return c
}

// SpResult carries the sparse kernel's outputs.
type SpResult struct {
	D2, D3   *sparse.CSR
	Time     float64
	GemmTime float64
}

// SymmSquareCubeSparse computes D² and D³ of the block-sparse symmetric
// matrix whose (i,j) block this rank holds. pipelined selects the
// overlapped panel schedule. Results come back in the same distribution.
func (e *SpEnv) SymmSquareCubeSparse(d *sparse.CSR, pipelined bool) SpResult {
	start := e.P.Now()
	g0 := e.GemmTime
	d2 := e.spSumma(d, d, pipelined)
	d3 := e.spSumma(d, d2, pipelined)
	return SpResult{
		D2: d2, D3: d3,
		Time:     e.P.Now() - start,
		GemmTime: e.GemmTime - g0,
	}
}
