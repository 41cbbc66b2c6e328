// Package core implements the paper's contribution: the SymmSquareCube
// kernel (simultaneous D² and D³ of a symmetric matrix) in its original
// (Alg. 3), baseline (Alg. 4) and communication-overlapped optimized
// (Alg. 5) forms on a 3D process mesh, a 2.5D/Cannon variant (Alg. 6), and
// the pipelined parallel matrix-vector product used as the paper's
// expository example (Algs. 1-2). All variants run over the simulated MPI
// library and produce numerically identical results in real mode.
package core

import (
	"fmt"

	"commoverlap/internal/mat"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
)

// Config controls a kernel run.
type Config struct {
	// N is the global matrix dimension.
	N int
	// NDup is the pipeline width of the nonblocking-overlap technique:
	// the number of duplicated communicators, each carrying 1/NDup of the
	// data. NDup == 1 disables overlap (Alg. 5 degenerates to Alg. 4).
	NDup int
	// NDupAB is the pipeline width of the optimized kernel's A and B
	// broadcasts (Alg. 5 lines 1-8); 0 means NDup. Every phase from the
	// first reduction on runs at NDup. The tuned configuration layer sets
	// it from the broadcast winner of a persisted tuning table, and NDup
	// from the reduction winner. Every rank must pass the same widths.
	NDupAB int
	// Real selects real arithmetic (for correctness tests) over phantom
	// payloads (for paper-scale benchmarks).
	Real bool
	// PPN is the number of ranks sharing each node's cores, used to charge
	// local GEMM time. It should match the placement the world was built
	// with. Zero means 1.
	PPN int
}

func (c *Config) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("core: N = %d", c.N)
	}
	if c.NDup <= 0 {
		return fmt.Errorf("core: NDup = %d", c.NDup)
	}
	if c.NDupAB < 0 {
		return fmt.Errorf("core: NDupAB = %d", c.NDupAB)
	}
	return nil
}

// kernelEnv is what every kernel environment shares: the rank, its mesh
// communicators, the validated configuration and the local-multiply clock,
// with the block, payload and GEMM helpers built on them. Env, Env25,
// Env2D, MatVec and SpEnv embed it, so P, M, Cfg and GemmTime read as
// their own fields.
type kernelEnv struct {
	P   *mpi.Proc
	M   *mesh.Comms
	Cfg Config

	// GemmTime accumulates the virtual time this rank spent in local matrix
	// multiplication, so harnesses can separate compute from communication.
	GemmTime float64
}

// newKernelEnv validates cfg, defaults its PPN to 1 and its NDupAB to NDup
// and builds the mesh over comm. It duplicates no communicator: each environment's constructor
// makes exactly the Dup calls its kernel needs, in a fixed order, because
// every Split is a rendezvous whose wake order the timed region inherits.
func newKernelEnv(p *mpi.Proc, comm *mpi.Comm, dims mesh.Dims, cfg Config) (kernelEnv, error) {
	if err := cfg.validate(); err != nil {
		return kernelEnv{}, err
	}
	if cfg.PPN == 0 {
		cfg.PPN = 1
	}
	if cfg.NDupAB == 0 {
		cfg.NDupAB = cfg.NDup
	}
	m, err := mesh.Build(comm, dims)
	if err != nil {
		return kernelEnv{}, err
	}
	return kernelEnv{P: p, M: m, Cfg: cfg}, nil
}

// blocks returns the row/column partition of the global matrix over the
// mesh edge.
func (e *kernelEnv) blocks() mat.BlockDim {
	return mat.BlockDim{N: e.Cfg.N, P: e.M.Dims.Q}
}

// newBlock allocates a rows x cols working matrix, real or phantom per the
// configuration.
func (e *kernelEnv) newBlock(rows, cols int) *mat.Matrix {
	if e.Cfg.Real {
		return mat.New(rows, cols)
	}
	return mat.NewPhantom(rows, cols)
}

// buf wraps a whole matrix as a message payload.
func (e *kernelEnv) buf(m *mat.Matrix) mpi.Buffer {
	if m.Phantom() {
		return mpi.Phantom(m.Bytes())
	}
	if m.Stride != m.Cols {
		panic("core: message from non-contiguous matrix view")
	}
	return mpi.F64(m.Data[:m.Rows*m.Cols])
}

// bandBufN wraps the c-th of nd contiguous row bands of m — the paper's
// "c-th part" of a block, kept contiguous so no repacking is needed between
// pipelined operations (Section III principle 3). nd is the width of the
// phase the band travels in.
func (e *kernelEnv) bandBufN(m *mat.Matrix, c, nd int) mpi.Buffer {
	bd := mat.BlockDim{N: m.Rows, P: nd}
	lo, n := bd.Offset(c), bd.Count(c)
	if m.Phantom() {
		return mpi.Phantom(int64(n) * int64(m.Cols) * 8)
	}
	if m.Stride != m.Cols {
		panic("core: band of non-contiguous matrix view")
	}
	return mpi.F64(m.Data[lo*m.Cols : (lo+n)*m.Cols])
}

// gemm performs C = A*B + accumulate*C, charging virtual compute time for
// the node share this rank owns and doing the real arithmetic in real mode.
func (e *kernelEnv) gemm(a, b, c *mat.Matrix, accumulate bool) {
	t0 := e.P.Now()
	e.P.Compute(mat.GemmFlops(a.Rows, a.Cols, b.Cols), e.Cfg.PPN)
	beta := 0.0
	if accumulate {
		beta = 1.0
	}
	mat.Gemm(1, a, b, beta, c)
	e.GemmTime += e.P.Now() - t0
}

// Env is the per-rank kernel environment: the mesh communicators plus
// max(NDup, NDupAB) duplicates of each family, created once (outside the
// timed region, as in GTFock) and reused across purification iterations.
type Env struct {
	kernelEnv

	RowDup, ColDup, GridDup, WorldDup []*mpi.Comm

	// Trace, when non-nil, receives (label, virtual time) pairs at phase
	// boundaries of the kernels; the Fig. 6-style timeline harness uses it.
	Trace func(label string, t float64)
}

// trace emits a phase boundary to the Trace hook, if installed.
func (e *Env) trace(label string) {
	if e.Trace != nil {
		e.Trace(label, e.P.Now())
	}
}

// NewEnv builds the communicator families for the calling rank. Every rank
// of the world must call NewEnv with identical dims and cfg.
func NewEnv(p *mpi.Proc, dims mesh.Dims, cfg Config) (*Env, error) {
	return NewEnvOn(p, p.World(), dims, cfg)
}

// NewEnvOn builds the kernel environment over an explicit communicator, so
// a kernel can run on a subset of the job's ranks (the paper's per-kernel
// PPN mechanism parks the rest). Every rank of comm must call NewEnvOn.
func NewEnvOn(p *mpi.Proc, comm *mpi.Comm, dims mesh.Dims, cfg Config) (*Env, error) {
	ke, err := newKernelEnv(p, comm, dims, cfg)
	if err != nil {
		return nil, err
	}
	e := &Env{kernelEnv: ke}
	m, width := e.M, max(e.Cfg.NDup, e.Cfg.NDupAB)
	e.RowDup = m.Row.DupN(width)
	e.ColDup = m.Col.DupN(width)
	e.GridDup = m.Grid.DupN(width)
	e.WorldDup = m.World.DupN(width)
	return e, nil
}

// Result carries one rank's kernel output and timing.
type Result struct {
	// D2 and D3 are this rank's blocks of the results, valid on plane k=0
	// (nil elsewhere), distributed exactly like the input D.
	D2, D3 *mat.Matrix
	// Time is the rank's elapsed virtual time inside the kernel.
	Time float64
	// GemmTime is the portion of Time spent in local multiplication; the
	// remainder is communication (including synchronization).
	GemmTime float64
}

// KernelFlops returns the floating-point operations counted for one
// SymmSquareCube invocation (two N^3 multiplications), the figure the
// paper's TFlops numbers divide by.
func KernelFlops(n int) float64 {
	fn := float64(n)
	return 4 * fn * fn * fn
}

// Variant selects a SymmSquareCube implementation.
type Variant int

const (
	// Original is Algorithm 3 (GTFock's released version).
	Original Variant = iota
	// Baseline is Algorithm 4 (transpose eliminated, sends moved late).
	Baseline
	// Optimized is Algorithm 5 (pipelined + overlapped, width NDup).
	Optimized
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Original:
		return "original(alg3)"
	case Baseline:
		return "baseline(alg4)"
	case Optimized:
		return "optimized(alg5)"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// SymmSquareCube runs the selected variant. D is this rank's input block on
// plane k=0 (ignored elsewhere); the result blocks come back on plane 0.
func (e *Env) SymmSquareCube(v Variant, d *mat.Matrix) Result {
	start := e.P.Now()
	g0 := e.GemmTime
	var d2, d3 *mat.Matrix
	switch v {
	case Original:
		d2, d3 = e.symmSquareCubeOriginal(d)
	case Baseline:
		d2, d3 = e.symmSquareCubeBaseline(d)
	case Optimized:
		d2, d3 = e.symmSquareCubeOptimized(d)
	default:
		panic(fmt.Sprintf("core: unknown variant %d", int(v)))
	}
	return Result{
		D2:       d2,
		D3:       d3,
		Time:     e.P.Now() - start,
		GemmTime: e.GemmTime - g0,
	}
}
