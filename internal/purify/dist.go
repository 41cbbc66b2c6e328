package purify

import (
	"fmt"
	"math"

	"commoverlap/internal/core"
	"commoverlap/internal/mat"
	"commoverlap/internal/mpi"
)

// Dist runs canonical purification over the 3D SymmSquareCube kernel: the
// Fock matrix lives in the kernel's block distribution (plane k == 0 holds
// the blocks), every iteration's D² and D³ come from one kernel invocation
// of the chosen variant, and the three traces the update needs are combined
// with one small allreduce.
type Dist struct {
	env *core.Env
	v   core.Variant
}

// NewDist wraps a 3D kernel environment with the chosen algorithm variant.
func NewDist(env *core.Env, v core.Variant) *Dist { return &Dist{env: env, v: v} }

// layout returns the kernel's world communicator, the block-grid edge q,
// this rank's block coordinates (i, j), and whether this rank holds blocks.
func (dd *Dist) layout() (world *mpi.Comm, q, i, j int, holds bool) {
	m := dd.env.M
	return m.World, m.Dims.Q, m.I, m.J, m.K == 0
}

// spectral computes mu = tr(F)/N and Gershgorin bounds of the distributed
// F with two world allreduces: per-row |off-diagonal| sums travel as one
// N-length vector (setup cost only), then the disc extremes and the trace
// are combined.
func (dd *Dist) spectral(fblk *mat.Matrix) (mu, hmin, hmax float64) {
	world, q, i, j, holds := dd.layout()
	cfg := dd.env.Cfg
	bd := mat.BlockDim{N: cfg.N, P: q}

	rowAbs := make([]float64, cfg.N)
	if holds && fblk != nil && !fblk.Phantom() {
		rowOff := bd.Offset(i)
		for r := 0; r < fblk.Rows; r++ {
			s := 0.0
			for c := 0; c < fblk.Cols; c++ {
				if i == j && r == c {
					continue // diagonal handled separately
				}
				s += math.Abs(fblk.At(r, c))
			}
			rowAbs[rowOff+r] = s
		}
	}
	world.Allreduce(mpi.F64(rowAbs), mpi.OpSum)

	// Diagonal owners compute local disc extremes and the trace.
	localHi, localNegLo, localTr := math.Inf(-1), math.Inf(-1), 0.0
	if holds && i == j && fblk != nil && !fblk.Phantom() {
		rowOff := bd.Offset(i)
		for r := 0; r < fblk.Rows; r++ {
			d := fblk.At(r, r)
			localTr += d
			if d+rowAbs[rowOff+r] > localHi {
				localHi = d + rowAbs[rowOff+r]
			}
			if -(d - rowAbs[rowOff+r]) > localNegLo {
				localNegLo = -(d - rowAbs[rowOff+r])
			}
		}
	}
	ext := []float64{localHi, localNegLo}
	world.Allreduce(mpi.F64(ext), mpi.OpMax)
	tr := []float64{localTr}
	world.Allreduce(mpi.F64(tr), mpi.OpSum)
	return tr[0] / float64(cfg.N), -ext[1], ext[0]
}

// blockTrace returns this rank's contribution to the global trace: the
// diagonal of its block when the block sits on the grid diagonal.
func (dd *Dist) blockTrace(blk *mat.Matrix) float64 {
	_, _, i, j, holds := dd.layout()
	if !holds || i != j || blk == nil || blk.Phantom() {
		return 0
	}
	return blk.Trace()
}

// Run purifies the distributed F. fblk is this rank's block of F (nil on
// ranks that hold no blocks, or everywhere in phantom mode). It returns
// this rank's block of the converged density matrix. Every rank of the
// kernel's world must call Run.
func (dd *Dist) Run(fblk *mat.Matrix, opt Options) (*mat.Matrix, Stats, error) {
	cfg := dd.env.Cfg
	opt, err := opt.norm(cfg.N)
	if err != nil {
		return nil, Stats{}, err
	}
	world, q, i, j, holds := dd.layout()
	n := float64(cfg.N)
	isReal := cfg.Real
	if isReal && holds && fblk == nil {
		return nil, Stats{}, fmt.Errorf("purify: rank %d holds blocks but got no F block", world.Rank())
	}

	// Initial guess D0 = (lambda/N)(mu I - F) + (Ne/N) I.
	var d *mat.Matrix
	if isReal {
		mu, hmin, hmax := dd.spectral(fblk)
		if holds {
			lambda := initialLambda(n, float64(opt.Ne), mu, hmin, hmax)
			d = fblk.Clone()
			d.Scale(-lambda / n)
			if i == j {
				d.AddIdentity(lambda*mu/n + float64(opt.Ne)/n)
			}
		}
	} else if holds {
		bd := mat.BlockDim{N: cfg.N, P: q}
		d = mat.NewPhantom(bd.Count(i), bd.Count(j))
	}

	var st Stats
	for st.Iters = 0; st.Iters < opt.MaxIter; st.Iters++ {
		res := dd.env.SymmSquareCube(dd.v, d)
		st.KernelTime += res.Time
		st.GemmTime += res.GemmTime

		traces := []float64{dd.blockTrace(d), dd.blockTrace(res.D2), dd.blockTrace(res.D3)}
		world.Allreduce(mpi.F64(traces), mpi.OpSum)
		trD, trD2, trD3 := traces[0], traces[1], traces[2]

		if isReal {
			st.IdemErr = (trD - trD2) / n
			if st.IdemErr < opt.Tol {
				st.Converged = true
				break
			}
			a, b, g, _ := purifyCoeffs(trD, trD2, trD3)
			if holds {
				next := res.D2
				next.Scale(b)
				next.Add(a, d)
				next.Add(g, res.D3)
				d = next
			}
		}
	}
	if isReal {
		tr := []float64{dd.blockTrace(d)}
		world.Allreduce(mpi.F64(tr), mpi.OpSum)
		st.TraceErr = math.Abs(tr[0] - float64(opt.Ne))
	}
	return d, st, nil
}
