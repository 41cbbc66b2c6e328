// Package bench regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated machine: the point-to-point
// bandwidth sweep (Fig. 3), the collective micro-benchmark (Fig. 5), the
// operation timeline (Fig. 6), the SymmSquareCube variant and N_DUP tables
// (Tables I and II), the multiple-PPN sweep (Table III), the estimated vs
// actual communication analysis (Table IV), and the 2.5D sweep (Table V).
//
// Each experiment has a function that writes a paper-style text table to
// an io.Writer and returns the underlying numbers so tests can assert the
// qualitative claims (who wins, by roughly what factor). Experiments is the
// registry the CLI runs them from; Options carries every run-wide knob.
package bench

import (
	"fmt"
	"io"

	"commoverlap/internal/core"
	"commoverlap/internal/job"
	"commoverlap/internal/mesh"
	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/runner"
	"commoverlap/internal/simnet"
)

// Options carries the run-wide knobs every experiment takes explicitly.
// The zero value runs at the paper's sizes on the default replica pool.
type Options struct {
	// Workers bounds how many independent simulation replicas (experiment
	// cells) run concurrently: 0 picks GOMAXPROCS, 1 forces the sequential
	// order. Each cell is an isolated sim.Engine with no shared state, and
	// results are keyed by case index, so the emitted tables and CSVs are
	// byte-identical at any worker count.
	Workers int
	// Metrics, when non-nil, is installed as the virtual-time metrics sink
	// of every cell the experiments build themselves (job.Spec.Metrics).
	// The cells measured inside internal/tune and internal/workload
	// (tuned, progress, mlwork, paperscale-tuned's tuned collective) take
	// no registry and do not feed it. It pins the replica pool to one
	// worker, so the single registry accumulates across a whole experiment
	// in deterministic order without races.
	Metrics *metrics.Registry
	// N overrides the matrix dimension of the kernel experiments (0 = the
	// paper's 1hsg_70, N = 7645).
	N int
	// TablePath is the tuning table the tuned experiments read.
	TablePath string
	// Quick shrinks the mlwork and progress payloads to CI smoke sizes.
	Quick bool
	// TracePath, when set, receives the fig6 timeline as Chrome trace JSON.
	TracePath string
}

// system is the kernel experiments' test system: the paper's 1hsg_70, or a
// custom one of dimension N with the paper systems' one electron per five
// basis functions.
func (o Options) system() System {
	if o.N != 0 {
		return System{Name: "custom", N: o.N, Ne: o.N / 5}
	}
	return Systems[2]
}

// n is the kernel experiments' matrix dimension.
func (o Options) n() int { return o.system().N }

// systems is the Table I/II system list: the paper's three, or one custom
// system when N is overridden.
func (o Options) systems() []System {
	if o.N != 0 {
		return []System{o.system()}
	}
	return Systems
}

// parcases fans an experiment's independent cells across the replica pool
// and returns the results in case order. The metrics registry (when
// installed) is the one piece of cross-job state, so it pins the pool to
// one worker to keep its accumulation order deterministic.
func parcases[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	w := o.Workers
	if o.Metrics != nil {
		w = 1
	}
	return runner.Map(n, w, fn)
}

// System names a molecular test system from the paper (Table I): the
// matrix dimension is all the kernel needs.
type System struct {
	Name string
	N    int
	Ne   int // electron count used by the purification application
}

// Systems are the paper's three test systems (dimensions from Table I).
// The electron counts are synthetic (one per five basis functions), chosen
// only to give purification realistic iteration counts.
var Systems = []System{
	{Name: "1hsg_45", N: 5330, Ne: 1066},
	{Name: "1hsg_60", N: 6895, Ne: 1379},
	{Name: "1hsg_70", N: 7645, Ne: 1529},
}

// run runs one experiment cell through job.Run with o.Metrics, when set,
// as the world's metrics sink, and returns the finished world (for byte
// accounting and utilization snapshots).
func (o Options) run(s job.Spec, body func(p *mpi.Proc)) (*mpi.World, error) {
	s.Metrics = o.Metrics
	return job.Run(s, body)
}

// UtilStats summarizes one job's resource occupancy over its elapsed
// virtual time: the mean busy fraction of inter-node wires (node egress),
// per-rank CPU lanes (software costs: staging, posting, reduction
// arithmetic) and per-rank NIC lanes (transfer progress).
type UtilStats struct {
	Elapsed float64 // virtual seconds the job ran
	simnet.LaneUtil
}

// utilization folds the world's post-run resource snapshots by lane class.
// Call after Engine.Run.
func utilization(w *mpi.World) UtilStats {
	elapsed := w.Eng.Now()
	return UtilStats{Elapsed: elapsed, LaneUtil: simnet.MeanLaneUtil(w.ResourceSnapshots(), elapsed)}
}

// KernelRun measures one SymmSquareCube invocation.
type KernelRun struct {
	Time     float64 // max over ranks, seconds of virtual time
	GemmTime float64 // max over ranks
	CommTime float64 // Time - GemmTime of the slowest rank
	TFlops   float64
	Volume   int64 // total inter-node bytes
	Nodes    int
	// WireUtil is the mean busy fraction of the node egress wires over the
	// run — how hard the overlap variants actually drive the network.
	WireUtil float64
}

// Kernel runs a variant at (n, mesh edge p, ndup, ppn) with phantom
// payloads and returns the timing.
func Kernel(v core.Variant, n, p, ndup, ppn int) (KernelRun, error) {
	return kernel(Options{}, v, n, p, ndup, ppn)
}

// kernel is Kernel inside an experiment, whose options carry the metrics
// sink.
func kernel(o Options, v core.Variant, n, p, ndup, ppn int) (KernelRun, error) {
	return kernelCfg(o, v, p, core.Config{N: n, NDup: ndup, PPN: ppn})
}

// kernel25 runs the 2.5D kernel (Algorithm 6) on a q x q x c mesh.
func kernel25(o Options, q, c, n, ndup, ppn int) (KernelRun, error) {
	dims := mesh.Dims{Q: q, C: c}
	return o.kernelCell(naturalSpec(dims.Size(), ppn), n, func(pr *mpi.Proc) (core.Result, error) {
		env, err := core.NewEnv25(pr, dims, core.Config{N: n, NDup: ndup, PPN: ppn})
		if err != nil {
			return core.Result{}, err
		}
		env.M.World.Barrier()
		return env.SymmSquareCube25(nil), nil
	})
}

// kernelCfg runs variant v on a p-edge cubic mesh under an explicit
// configuration — the entry point for table-driven runs, whose broadcasts
// may be wider or narrower than their reductions (Config.NDupAB).
func kernelCfg(o Options, v core.Variant, p int, cfg core.Config) (KernelRun, error) {
	dims := mesh.Cubic(p)
	return o.kernelCell(naturalSpec(dims.Size(), max(cfg.PPN, 1)), cfg.N, kernel3D(dims, v, cfg))
}

// kernel3D is the rank body of a 3D SymmSquareCube cell.
func kernel3D(dims mesh.Dims, v core.Variant, cfg core.Config) func(*mpi.Proc) (core.Result, error) {
	return func(pr *mpi.Proc) (core.Result, error) {
		env, err := core.NewEnv(pr, dims, cfg)
		if err != nil {
			return core.Result{}, err
		}
		env.M.World.Barrier()
		return env.SymmSquareCube(v, nil), nil
	}
}

// kernel2D runs SymmSquareCube built on 2D SUMMA on a q x q mesh, one rank
// per node.
func kernel2D(o Options, q, n, ndup int, pipelined bool) (KernelRun, error) {
	return o.kernelCell(naturalSpec(q*q, 1), n, func(pr *mpi.Proc) (core.Result, error) {
		env, err := core.NewEnv2D(pr, q, core.Config{N: n, NDup: ndup})
		if err != nil {
			return core.Result{}, err
		}
		env.M.World.Barrier()
		return env.SymmSquareCube2D(nil, pipelined), nil
	})
}

// kernelCell runs one kernel cell: body runs on every rank of the job s
// describes and returns that rank's kernel result. The slowest rank's
// times, the run's wire volume and utilization, and the TFlops of one
// dimension-n SymmSquareCube over the slowest time make up the KernelRun.
// A body's error fails the cell.
func (o Options) kernelCell(s job.Spec, n int, body func(*mpi.Proc) (core.Result, error)) (KernelRun, error) {
	out := KernelRun{Nodes: s.Config.Nodes}
	// Rank bodies run one at a time under the engine, so out and bodyErr
	// need no locking.
	var bodyErr error
	w, err := o.run(s, func(pr *mpi.Proc) {
		res, err := body(pr)
		if err != nil {
			if bodyErr == nil {
				bodyErr = err
			}
			return
		}
		accumulate(&out, res)
	})
	if bodyErr != nil {
		return out, bodyErr
	}
	if err != nil {
		return out, err
	}
	out.TFlops = core.KernelFlops(n) / out.Time / 1e12
	out.Volume = w.Net.TotalWireBytes()
	out.WireUtil, _ = w.Net.Utilization(w.Eng.Now())
	return out, nil
}

// accumulate folds one rank's result into the cell: each time is the
// maximum over ranks.
func accumulate(out *KernelRun, res core.Result) {
	if res.Time > out.Time {
		out.Time = res.Time
	}
	if res.GemmTime > out.GemmTime {
		out.GemmTime = res.GemmTime
	}
	if res.Time-res.GemmTime > out.CommTime {
		out.CommTime = res.Time - res.GemmTime
	}
}

// naturalSpec is the job of ranks ranks on the default machine, ppn to a
// node in rank order, on just enough nodes.
func naturalSpec(ranks, ppn int) job.Spec {
	return job.Spec{
		Config:    simnet.DefaultConfig(mesh.NodesNeeded(ranks, ppn)),
		Ranks:     ranks,
		Placement: mesh.NaturalPlacement(ranks, ppn),
	}
}

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
