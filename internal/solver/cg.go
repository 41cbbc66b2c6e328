// Package solver implements the paper's stated future-work direction
// (Section VI): overlapping communications in iterative linear solvers,
// where global reductions (dot products and norms) become the bottleneck
// at scale. It provides a distributed conjugate gradient for symmetric
// positive-definite banded operators in two forms:
//
//   - Standard: textbook CG — two blocking allreduce reductions per
//     iteration, each a synchronization point for every rank;
//   - Pipelined: the Ghysels–Vanroose rearrangement — the iteration's
//     reductions are posted as a single nonblocking allreduce that
//     overlaps the matrix-vector product (halo exchange + local stencil),
//     the same overlap idea the paper applies to SymmSquareCube.
//
// Vectors are block-distributed (BlockDim); the operator is a symmetric
// banded stencil, so the matvec needs only halo exchanges with the two
// neighboring ranks.
package solver

import (
	"fmt"
	"math"

	"commoverlap/internal/mat"
	"commoverlap/internal/mpi"
)

// CG is the per-rank solver state.
type CG struct {
	P    *mpi.Proc
	Comm *mpi.Comm

	// N is the global system size; Stencil[d] is the matrix entry at
	// |i-j| == d (Stencil[0] is the diagonal). The operator is SPD when
	// diagonally dominant; NewStencil builds such a stencil.
	N       int
	Stencil []float64

	// Real selects actual arithmetic; otherwise the solver runs the
	// communication/compute pattern with phantom payloads for a fixed
	// iteration count.
	Real bool
	// PPN is the node-sharing factor for compute charging.
	PPN int

	lo, hi int // owned element range
}

// NewStencil returns a diagonally dominant SPD stencil with the given
// half bandwidth: off-diagonals decay geometrically and the diagonal
// exceeds twice the sum of their magnitudes.
func NewStencil(halfBW int) []float64 {
	s := make([]float64, halfBW+1)
	sum := 0.0
	for d := 1; d <= halfBW; d++ {
		s[d] = -1.0 / float64(int(1)<<uint(d-1))
		sum += math.Abs(s[d])
	}
	s[0] = 2*sum + 1
	return s
}

// New builds the solver over comm. Every rank of comm must call New with
// identical arguments.
func New(p *mpi.Proc, comm *mpi.Comm, n int, stencil []float64, real bool, ppn int) (*CG, error) {
	if n <= 0 {
		return nil, fmt.Errorf("solver: N = %d", n)
	}
	if len(stencil) == 0 || stencil[0] <= 0 {
		return nil, fmt.Errorf("solver: need a positive diagonal stencil")
	}
	hb := len(stencil) - 1
	bd := mat.BlockDim{N: n, P: comm.Size()}
	if bd.MaxCount() < hb && comm.Size() > 1 {
		return nil, fmt.Errorf("solver: half bandwidth %d exceeds local block %d", hb, bd.MaxCount())
	}
	if ppn <= 0 {
		ppn = 1
	}
	c := &CG{P: p, Comm: comm, N: n, Stencil: stencil, Real: real, PPN: ppn}
	c.lo = bd.Offset(comm.Rank())
	c.hi = c.lo + bd.Count(comm.Rank())
	return c, nil
}

// Local returns the number of elements this rank owns.
func (c *CG) Local() int { return c.hi - c.lo }

// haloTag separates the matvec's halo traffic from everything else.
const haloTag = 11

// matvec computes y = A x for the owned range, exchanging hb-element halos
// with the neighboring ranks. x and y are local slices (nil in phantom
// mode); the returned halo buffers are reused across calls via the
// receiver's scratch.
func (c *CG) matvec(x, y []float64) {
	hb := len(c.Stencil) - 1
	r, size := c.Comm.Rank(), c.Comm.Size()
	nl := c.Local()

	var left, right []float64
	if c.Real {
		left = make([]float64, hb)
		right = make([]float64, hb)
	}
	var pending []*mpi.Request
	haloBuf := func(v []float64, lo, n int) mpi.Buffer {
		if !c.Real {
			return mpi.Phantom(int64(n) * 8)
		}
		return mpi.F64(v[lo : lo+n])
	}
	if hb > 0 && r > 0 {
		pending = append(pending,
			c.Comm.Isend(r-1, haloTag, haloBuf(x, 0, min(hb, nl))),
			c.Comm.Irecv(r-1, haloTag, haloBuf(left, 0, hb)))
	}
	if hb > 0 && r < size-1 {
		pending = append(pending,
			c.Comm.Isend(r+1, haloTag, haloBuf(x, max(0, nl-hb), min(hb, nl))),
			c.Comm.Irecv(r+1, haloTag, haloBuf(right, 0, hb)))
	}
	mpi.Waitall(pending...)

	// Local stencil application (2*(2hb+1) flops per element).
	c.P.Compute(2*float64(2*hb+1)*float64(nl), c.PPN)
	if !c.Real {
		return
	}
	at := func(gi int) float64 {
		switch {
		case gi < c.lo:
			if gi < c.lo-hb || gi < 0 {
				return 0
			}
			return left[gi-(c.lo-hb)]
		case gi >= c.hi:
			if gi >= c.hi+hb || gi >= c.N {
				return 0
			}
			return right[gi-c.hi]
		default:
			return x[gi-c.lo]
		}
	}
	for i := 0; i < nl; i++ {
		gi := c.lo + i
		s := c.Stencil[0] * x[i]
		for d := 1; d <= hb; d++ {
			s += c.Stencil[d] * (at(gi-d) + at(gi+d))
		}
		y[i] = s
	}
}

// dots computes the given local partial sums' global values with one
// blocking allreduce.
func (c *CG) dots(vals []float64) {
	if c.Real {
		c.Comm.Allreduce(mpi.F64(vals), mpi.OpSum)
		return
	}
	c.Comm.Allreduce(mpi.Phantom(int64(len(vals))*8), mpi.OpSum)
}

func localDot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Result reports a solve.
type Result struct {
	Iters     int
	RelRes    float64 // ||b - A x|| / ||b|| at exit (real mode)
	Converged bool
	Time      float64 // virtual seconds inside the solve
}

// axpyFlops charges the vector-update arithmetic of one iteration.
func (c *CG) axpyFlops(nUpdates int) {
	c.P.Compute(2*float64(nUpdates)*float64(c.Local()), c.PPN)
}
