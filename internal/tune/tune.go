// Package tune is the per-kernel overlap auto-tuner: given a set of kernel
// descriptors (collective operation, payload, node count), it sweeps the
// overlap parameter space the paper exposes — N_DUP, active PPN (surplus
// ranks parked on an Ibarrier), the collective algorithm switch-over points
// and the fabric protocol knobs — over independent simulator replicas and
// persists the measured bandwidths plus the winner per kernel as a JSON
// tuning table.
//
// Every cell is an isolated simulation fanned through internal/runner, so
// the search is deterministic: the table is byte-identical at any worker
// count. Each cell also carries a provenance hash of everything that
// determines its bandwidth (machine config, kernel, parameters, launch
// width), and every search runs through a cache.Store keyed by it: a store
// seeded from a persisted table re-evaluates only the cells whose hash
// changed.
package tune

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"

	"commoverlap/internal/cache"
	"commoverlap/internal/job"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/progress"
	"commoverlap/internal/runner"
	"commoverlap/internal/simnet"
	"commoverlap/internal/workload"
)

// Kernel describes one communication kernel to tune: a collective operation
// of a total payload across a node count, on a named fabric topology.
// Besides the bare collectives, the ML-workload patterns from
// internal/workload ("dp", "zero", "pipeline") are kernels too: those
// measure the whole overlapped training step on the accelerator preset, so
// the table learns per-workload (N_DUP, PPN, algorithm) winners.
type Kernel struct {
	Op    string `json:"op"`    // "bcast", "reduce", "allreduce", "dp", "zero" or "pipeline"
	Bytes int64  `json:"bytes"` // total collective payload in bytes
	Nodes int    `json:"nodes"` // participating nodes
	// Topo names the fabric the kernel runs on (simnet.TopoByName); empty is
	// the flat fabric. Winners are learned per topology: the same collective
	// tunes differently on a hierarchical fabric than on a flat one.
	Topo string `json:"topo,omitempty"`
}

// Name returns the kernel's stable identifier, e.g. "reduce-16MiB-4n" or
// "allreduce-4MiB-8n@hier".
func (k Kernel) Name() string {
	name := fmt.Sprintf("%s-%s-%dn", k.Op, sizeLabel(k.Bytes), k.Nodes)
	if k.Topo != "" {
		name += "@" + k.Topo
	}
	return name
}

// opSpec is one row of the op table: everything the tuner decides per
// kernel operation.
type opSpec struct {
	// family lists the collective algorithms the Alg axis may force; nil
	// sweeps auto selection only.
	family []string
	// longMsg returns the cell's override of the one switch point the op's
	// auto selection consults. Nil means the measurement applies no switch
	// point, so switch-point-only protocol variants are skipped.
	longMsg func(Params) int64
	// workload marks an internal/workload pattern, measured as a whole
	// overlapped training step on the accelerator preset (measureWorkload).
	// The other ops are bare collectives on the default calibration
	// (CollectiveJob): force sets the world's forced algorithm, and post
	// starts one duplicate's share of the collective.
	workload bool
	force    func(w *mpi.World, alg string)
	post     func(c *mpi.Comm, b mpi.Buffer) *mpi.Request
}

func bcastLong(p Params) int64  { return p.BcastLongMsg }
func reduceLong(p Params) int64 { return p.ReduceLongMsg }

// ops is the op table, the one place that says what each kernel operation
// is. Allreduce selects on the reduce switch point. The dp pattern's
// collective is an allreduce, so it forces that family; zero's ring
// reduce-scatter/allgather pair and pipeline's p2p chain have none. No
// workload pattern takes a switch point: workload.Spec has no such field.
var ops = map[string]opSpec{
	"bcast": {family: mpi.BcastAlgs(), longMsg: bcastLong,
		force: func(w *mpi.World, alg string) { w.BcastAlg = alg },
		post:  func(c *mpi.Comm, b mpi.Buffer) *mpi.Request { return c.Ibcast(0, b) }},
	"reduce": {family: mpi.ReduceAlgs(), longMsg: reduceLong,
		force: func(w *mpi.World, alg string) { w.ReduceAlg = alg },
		post:  func(c *mpi.Comm, b mpi.Buffer) *mpi.Request { return c.Ireduce(0, b, b, mpi.OpSum) }},
	"allreduce": {family: mpi.AllreduceAlgs(), longMsg: reduceLong,
		force: func(w *mpi.World, alg string) { w.AllreduceAlg = alg },
		post:  func(c *mpi.Comm, b mpi.Buffer) *mpi.Request { return c.Iallreduce(b, mpi.OpSum) }},
	string(workload.DataParallel): {family: mpi.AllreduceAlgs(), workload: true},
	string(workload.ZeRO):         {workload: true},
	string(workload.Pipeline):     {workload: true},
}

func (k Kernel) validate() error {
	if _, ok := ops[k.Op]; !ok {
		return fmt.Errorf("tune: kernel op %q (want bcast, reduce, allreduce, dp, zero or pipeline)", k.Op)
	}
	if k.Bytes <= 0 {
		return fmt.Errorf("tune: kernel bytes %d", k.Bytes)
	}
	if k.Nodes <= 1 {
		return fmt.Errorf("tune: kernel nodes %d", k.Nodes)
	}
	if _, err := simnet.TopoByName(k.Topo, k.Nodes); err != nil {
		return fmt.Errorf("tune: kernel topo: %w", err)
	}
	return nil
}

func sizeLabel(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Params is one cell of the overlap parameter space. The protocol knobs are
// optional: zero means "the calibrated default".
type Params struct {
	// NDup is the number of duplicated communicators, each carrying 1/NDup
	// of the payload (the nonblocking-overlap width).
	NDup int `json:"ndup"`
	// PPN is the number of active ranks per node; the kernel's collective
	// runs in PPN column communicators of one rank per node each, and the
	// surplus launched ranks park (the per-kernel PPN mechanism).
	PPN int `json:"ppn"`
	// BcastLongMsg and ReduceLongMsg override the collective-algorithm
	// switch-over points (per-World configuration).
	BcastLongMsg  int64 `json:"bcast_long_msg,omitempty"`
	ReduceLongMsg int64 `json:"reduce_long_msg,omitempty"`
	// ChunkBytes and EagerLimit override the fabric protocol.
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
	EagerLimit int64 `json:"eager_limit,omitempty"`
	// Alg forces one member of the kernel operation's collective-algorithm
	// family (mpi.AlgRing, ...); empty keeps switch-point auto selection.
	Alg string `json:"alg,omitempty"`
	// Progress selects the asynchronous progress engine (progress.Parse
	// labels: "" = off, "rankN" = N progress agents per node taken out of
	// the launched lanes, "dma" = per-node offload engine). The third
	// overlap mechanism, tuned head-to-head against NDup and PPN.
	Progress string `json:"progress,omitempty"`
}

func (p Params) validate() error {
	if p.NDup <= 0 || p.PPN <= 0 {
		return fmt.Errorf("tune: params ndup=%d ppn=%d", p.NDup, p.PPN)
	}
	if _, err := progress.Parse(p.Progress); err != nil {
		return fmt.Errorf("tune: params progress: %w", err)
	}
	return nil
}

// label is the canonical cell key used for hashing and the progress lines.
func (p Params) label() string {
	return fmt.Sprintf("ndup=%d,ppn=%d,bcastlong=%d,reducelong=%d,chunk=%d,eager=%d,alg=%s,prog=%s",
		p.NDup, p.PPN, p.BcastLongMsg, p.ReduceLongMsg, p.ChunkBytes, p.EagerLimit, p.Alg, p.Progress)
}

// Grid is the parameter grid a search sweeps: the cross product of NDups,
// PPNs and Protocols (protocol-knob variants; include the zero Params for
// the calibrated default).
type Grid struct {
	Name  string `json:"name"`
	NDups []int  `json:"ndups"`
	PPNs  []int  `json:"ppns"`
	// LaunchPPN is how many ranks per node every measurement job launches;
	// cells with PPN < LaunchPPN park the surplus. Keeping it constant
	// across cells makes the parked-rank overhead part of the measurement,
	// exactly as in a real application that launches once.
	LaunchPPN int `json:"launch_ppn"`
	// Protocols are the protocol-knob variants to cross with every
	// (NDup, PPN); only the knob fields of each entry are read.
	Protocols []Params `json:"protocols"`
	// Algs are the collective algorithms to cross in (empty string = auto
	// switch-point selection). Nil means auto only. Entries that are not in
	// the kernel operation's family are skipped for that kernel, so one list
	// can mix bcast, reduce and allreduce algorithms.
	Algs []string `json:"algs,omitempty"`
	// Progresses are the progress-engine variants to cross in (progress
	// labels; include "" for the engine-off baseline). Nil means engine off
	// only. The axis is orthogonal to algorithm choice, so engine-on
	// variants are crossed with the auto algorithm only, which bounds the
	// sweep; rankN variants additionally skip PPNs that leave no launched
	// lane for the agents.
	Progresses []string `json:"progresses,omitempty"`
}

// QuickGrid is the coarse grid behind `overlapbench tune -quick` and the CI
// smoke table: the calibrated protocol with the overlap axes only.
func QuickGrid() Grid {
	return Grid{
		Name:      "quick",
		NDups:     []int{1, 2, 4, 8},
		PPNs:      []int{1, 2, 4},
		LaunchPPN: 4,
		Protocols: []Params{{}},
		// Auto plus the two allreduce schedules whose winner flips between
		// flat and hierarchical fabrics; bcast/reduce kernels sweep auto only.
		Algs: []string{mpi.AlgAuto, mpi.AlgRing, mpi.AlgShift},
		// Engine off, one progress agent per node, and the DMA engine: the
		// three-mechanism head-to-head the progress experiment reports.
		Progresses: []string{"", "rank1", "dma"},
	}
}

// FullGrid is the full search space: N_DUP 1..8, PPN up to 8, and the
// protocol variants (forced collective algorithms, chunk sizes, eager
// limit) crossed in.
func FullGrid() Grid {
	return Grid{
		Name:      "full",
		NDups:     []int{1, 2, 3, 4, 5, 6, 7, 8},
		PPNs:      []int{1, 2, 4, 8},
		LaunchPPN: 8,
		Protocols: []Params{
			{},                       // calibrated default
			{BcastLongMsg: 1 << 30},  // force binomial bcast
			{ReduceLongMsg: 1 << 30}, // force binomial reduce
			{ChunkBytes: 64 << 10},   // finer pipeline
			{ChunkBytes: 1 << 20},    // coarser pipeline
			{EagerLimit: 1},          // rendezvous everything
		},
		Algs: append([]string{mpi.AlgAuto},
			append(mpi.BcastAlgs(), append(mpi.ReduceAlgs(), mpi.AllreduceAlgs()...)...)...),
		Progresses: []string{"", "rank1", "rank2", "dma"},
	}
}

func (g Grid) validate() error {
	if len(g.NDups) == 0 || len(g.PPNs) == 0 || len(g.Protocols) == 0 {
		return fmt.Errorf("tune: empty grid axis")
	}
	if g.LaunchPPN <= 0 {
		return fmt.Errorf("tune: launch PPN %d", g.LaunchPPN)
	}
	for _, ndup := range g.NDups {
		if ndup <= 0 || ndup > maxNDup {
			return fmt.Errorf("tune: grid N_DUP %d outside 1..%d", ndup, maxNDup)
		}
	}
	for _, ppn := range g.PPNs {
		if ppn <= 0 || ppn > g.LaunchPPN {
			return fmt.Errorf("tune: grid PPN %d outside 1..%d", ppn, g.LaunchPPN)
		}
	}
	for _, proto := range g.Protocols {
		if proto.ChunkBytes != 0 && proto.ChunkBytes < minChunkBytes {
			return fmt.Errorf("tune: grid chunk_bytes %d below %d", proto.ChunkBytes, minChunkBytes)
		}
	}
	for _, prog := range g.Progresses {
		if _, err := progress.Parse(prog); err != nil {
			return fmt.Errorf("tune: grid progress axis: %w", err)
		}
	}
	return nil
}

// walk enumerates the grid's cells for a kernel of operation op in
// canonical order (algorithm, then progress engine, then protocol, then
// NDup, then PPN), calling visit, when non-nil, on each, and returns their
// count. Variants that cannot change the kernel's schedule are skipped:
// algorithms outside the operation's family, protocol variants that only
// move a switch point the measurement does not consult (skipProto), and
// (PPN, progress) pairs whose agents would not fit in the launched lanes.
// Each (algorithm, progress, protocol) block holds len(NDups) x fit cells,
// fit being the PPNs with room for the block's agents. walk adds each
// block to the count before visiting it and stops with ok false once the
// count passes budget, so sizing an oversized grid costs time linear in
// its axis lengths rather than in their product.
func (g Grid) walk(op string, budget int, visit func(Params)) (n int, ok bool) {
	spec := ops[op]
	ppns := slices.Clone(g.PPNs)
	slices.Sort(ppns)
	for _, alg := range g.algsFor(spec) {
		var protos []Params
		for _, proto := range g.Protocols {
			if !skipProto(spec, alg, proto) {
				protos = append(protos, proto)
			}
		}
		for _, prog := range g.progressesFor(alg) {
			// The PPNs that leave room for the agents: ppn+lanes <= LaunchPPN.
			lanes := progress.MustParse(prog).LanesNeeded()
			fit, _ := slices.BinarySearch(ppns, g.LaunchPPN-lanes+1)
			if fit == 0 {
				continue
			}
			for _, proto := range protos {
				if n += len(g.NDups) * fit; n > budget {
					return n, false
				}
				if visit == nil {
					continue
				}
				for _, ndup := range g.NDups {
					for _, ppn := range g.PPNs {
						if ppn+lanes <= g.LaunchPPN {
							p := proto
							p.NDup, p.PPN, p.Alg, p.Progress = ndup, ppn, alg, prog
							visit(p)
						}
					}
				}
			}
		}
	}
	return n, true
}

// progressesFor filters the grid's progress-engine axis for one algorithm:
// the engine is orthogonal to algorithm choice, so engine-on variants are
// crossed with the auto algorithm only.
func (g Grid) progressesFor(alg string) []string {
	if len(g.Progresses) == 0 || alg != mpi.AlgAuto {
		return []string{""}
	}
	return g.Progresses
}

// algsFor filters the grid's algorithm list down to auto and the members of
// the operation's family, deduplicated in list order. A nil list, or an
// operation with no family, means auto only.
func (g Grid) algsFor(spec opSpec) []string {
	if len(g.Algs) == 0 || spec.family == nil {
		return []string{mpi.AlgAuto}
	}
	var out []string
	for _, alg := range g.Algs {
		if (alg == mpi.AlgAuto || slices.Contains(spec.family, alg)) && !slices.Contains(out, alg) {
			out = append(out, alg)
		}
	}
	return out
}

// skipProto reports whether a protocol variant cannot change the kernel's
// schedule: it moves nothing but switch points, and the measurement
// consults none of them (a workload op, or a forced algorithm, which never
// consults them) or only the other operation's is set.
func skipProto(spec opSpec, alg string, proto Params) bool {
	if proto.ChunkBytes != 0 || proto.EagerLimit != 0 || (proto.BcastLongMsg == 0 && proto.ReduceLongMsg == 0) {
		return false
	}
	return spec.longMsg == nil || alg != mpi.AlgAuto || spec.longMsg(proto) == 0
}

// DefaultKernels is the kernel set the paper's evaluation exercises: the
// Fig. 5 micro-benchmark regimes (large and small payloads on 4 nodes), the
// 64-node paper-scale reduction, and the topology pair — the same allreduce
// on the flat and hierarchical fabrics, whose winners the table learns
// separately.
func DefaultKernels() []Kernel {
	return []Kernel{
		{Op: "reduce", Bytes: 16 << 20, Nodes: 4},
		{Op: "bcast", Bytes: 16 << 20, Nodes: 4},
		{Op: "reduce", Bytes: 64 << 10, Nodes: 4},
		{Op: "reduce", Bytes: 16 << 20, Nodes: 64},
		{Op: "allreduce", Bytes: 4 << 20, Nodes: 8},
		{Op: "allreduce", Bytes: 4 << 20, Nodes: 8, Topo: "hier"},
		// The ML-workload patterns on the accelerator preset: a bucketed
		// data-parallel gradient exchange, a ZeRO-style sharded step on the
		// hierarchical fabric (NVLink-flavored intra-node bus behind shared
		// uplinks), and pipeline-parallel microbatching.
		{Op: "dp", Bytes: 8 << 20, Nodes: 8},
		{Op: "zero", Bytes: 8 << 20, Nodes: 8, Topo: "hier"},
		{Op: "pipeline", Bytes: 1 << 20, Nodes: 8},
	}
}

// Measure runs one cell: a fresh simulated machine of k.Nodes nodes with
// grid-constant launchPPN ranks per node, p.PPN of them active (see
// CollectiveJob). Returns bandwidth in bytes/s under the paper's volume
// convention (2(p-1)/p * n).
func Measure(k Kernel, p Params, launchPPN int) (float64, error) {
	if err := k.validate(); err != nil {
		return 0, err
	}
	if err := p.validate(); err != nil {
		return 0, err
	}
	sp := progress.MustParse(p.Progress) // validated above
	if p.PPN+sp.LanesNeeded() > launchPPN {
		return 0, fmt.Errorf("tune: PPN %d + %d progress lanes exceed launch PPN %d",
			p.PPN, sp.LanesNeeded(), launchPPN)
	}
	if ops[k.Op].workload {
		return measureWorkload(k, p, launchPPN)
	}
	var elapsed float64
	if _, err := job.Run(CollectiveJob(k, p, launchPPN, &elapsed)); err != nil {
		return 0, err
	}
	vol := 2 * float64(k.Nodes-1) / float64(k.Nodes) * float64(k.Bytes)
	return vol / elapsed, nil
}

// CollectiveJob is the tuner's cell for a bare-collective kernel: the job
// spec (the cell's protocol overrides, fabric and progress engine on
// k.Nodes nodes of launchPPN naturally placed ranks, the switch points and
// forced algorithm set on the world) and the rank body. The active ranks
// run the collective split across p.PPN column communicators (one rank per
// node each) times p.NDup duplicates; the surplus ranks park on an
// Ibarrier with the paper's Test+usleep poll. The slowest active rank's
// elapsed time lands in *elapsed.
func CollectiveJob(k Kernel, p Params, launchPPN int, elapsed *float64) (job.Spec, func(*mpi.Proc)) {
	spec := ops[k.Op]
	cfg := simnet.DefaultConfig(k.Nodes)
	if p.ChunkBytes != 0 {
		cfg.ChunkBytes = p.ChunkBytes
	}
	if p.EagerLimit != 0 {
		cfg.EagerLimit = p.EagerLimit
	}
	ranks := k.Nodes * launchPPN
	s := job.Spec{
		Config:    cfg,
		Topo:      k.Topo,
		Progress:  p.Progress,
		Ranks:     ranks,
		Placement: mesh.NaturalPlacement(ranks, launchPPN),
		Setup: func(w *mpi.World) {
			if p.BcastLongMsg != 0 {
				w.BcastLongMsg = p.BcastLongMsg
			}
			if p.ReduceLongMsg != 0 {
				w.ReduceLongMsg = p.ReduceLongMsg
			}
			spec.force(w, p.Alg)
		},
	}
	return s, func(pr *mpi.Proc) {
		// Column communicators (one rank per node each) are split off while
		// every rank is awake — communicator creation is collective — and
		// only then do the surplus ranks park.
		lane := pr.Rank() % launchPPN
		color := lane
		if lane >= p.PPN {
			color = -1
		}
		col := pr.World().Split(color, pr.Rank()/launchPPN)
		var comms []*mpi.Comm
		if col != nil {
			comms = col.DupN(p.NDup)
		}
		mpi.RunActive(pr, pr.World(), col != nil, mpi.DefaultPollInterval, func() {
			t0 := pr.Now()
			share := k.Bytes / int64(p.PPN) / int64(p.NDup)
			if share == 0 {
				share = 1
			}
			reqs := make([]*mpi.Request, p.NDup)
			for d := 0; d < p.NDup; d++ {
				reqs[d] = spec.post(comms[d], mpi.Phantom(share))
			}
			mpi.Waitall(reqs...)
			if dt := pr.Now() - t0; dt > *elapsed {
				*elapsed = dt
			}
		})
	}
}

// workloadUnits is the fixed bucket/shard/microbatch count a workload
// kernel is measured with; the kernel's Bytes split evenly across units.
const workloadUnits = 8

// measureWorkload runs one workload-kernel cell: the overlapped variant of
// the pattern on the accelerator preset, with the cell's NDup/PPN/Alg and
// protocol overrides. Goodput (pattern payload volume over the slowest
// active rank's step time) is the measure the table optimizes. It is a
// virtual-time figure, so the cell runs on size-only payloads
// (workload.Spec.Phantom), which give the same Goodput as real ones.
func measureWorkload(k Kernel, p Params, launchPPN int) (float64, error) {
	cfg := workload.AcceleratorConfig(k.Nodes)
	if p.ChunkBytes != 0 {
		cfg.ChunkBytes = p.ChunkBytes
	}
	if p.EagerLimit != 0 {
		cfg.EagerLimit = p.EagerLimit
	}
	elems := int(k.Bytes/8) / workloadUnits
	if elems < 1 {
		elems = 1
	}
	res, err := workload.Run(workload.Spec{
		Pattern:   workload.Pattern(k.Op),
		Nodes:     k.Nodes,
		LaunchPPN: launchPPN,
		PPN:       p.PPN,
		NDup:      p.NDup,
		Units:     workloadUnits,
		Elems:     elems,
		Overlap:   true,
		Alg:       p.Alg,
		Progress:  p.Progress,
		Topo:      k.Topo,
		Config:    &cfg,
		Phantom:   true,
	})
	if err != nil {
		return 0, err
	}
	return res.Goodput(), nil
}

// cellHash fingerprints everything that determines one cell's bandwidth:
// the table format version, the machine calibration, the kernel, the
// parameters and the launch width. A store seeded from a persisted table
// serves a cell only while its hash still matches. The Go version and seed
// are provenance of the table, not of the physics, so they stay out of the
// hash — the simulator is exact arithmetic over a deterministic schedule.
func cellHash(k Kernel, p Params, launchPPN int) string {
	cfg := simnet.DefaultConfig(k.Nodes)
	if ops[k.Op].workload {
		// Workload kernels measure on the accelerator preset, so that is
		// the calibration their cells must be invalidated against.
		cfg = workload.AcceleratorConfig(k.Nodes)
	}
	cfg.Topo, _ = simnet.TopoByName(k.Topo, k.Nodes) // validated by the caller
	return hashCell(cfg, k, p, launchPPN)
}

// hashCell is the hash itself, split out so the cache-key integrity tests
// can prove that every field of the machine configuration — including the
// accelerator preset behind the workload kernels — moves the key.
func hashCell(cfg simnet.Config, k Kernel, p Params, launchPPN int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|%+v|%s/%d/%d/%s|%s|launch=%d",
		TableVersion, cfg, k.Op, k.Bytes, k.Nodes, k.Topo, p.label(), launchPPN)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Options configures a search.
type Options struct {
	Grid    Grid
	Kernels []Kernel // nil = DefaultKernels
	// Workers bounds the replica pool (0 = GOMAXPROCS, 1 = sequential).
	// The table is byte-identical at any width.
	Workers int
	// Cache is the content-addressed result store every cell goes through,
	// keyed by its provenance hash; nil gives the search a private store.
	// A cell already in the store — seeded from a persisted table
	// (Table.Seed), measured by an earlier search, or in flight in a
	// concurrent one — is read instead of re-simulated, and every cell
	// this search measures is written back. The table is byte-identical
	// either way: the simulator is deterministic, so a hash hit and a
	// fresh measurement are the same number.
	Cache *cache.Store
	// OnCell, when non-nil, streams cell completions: it receives the
	// owning kernel's name, the finished cell, and the running
	// (done, total) counts over the whole search. Calls are serialized by
	// the search but arrive from worker goroutines in completion order,
	// which varies with the worker count — only the final done == total
	// set is deterministic.
	OnCell func(kernel string, c Cell, done, total int)
}

// The limits one search may ask for, so that a single request to the
// tuning service cannot pin a worker or exhaust memory. The built-in grids
// over DefaultKernels stay inside them: at most 64 x 8 = 512 ranks,
// 16 MiB, N_DUP 8, 64 KiB chunks, and 7,648 cells (FullGrid).
const (
	maxRanks      = 1024     // nodes x launch PPN of one cell
	maxBytes      = 64 << 20 // one kernel's payload
	maxNDup       = 64       // one N_DUP axis entry
	minChunkBytes = 64 << 10 // a chunk_bytes override
	maxCells      = 8192     // cells in one search
)

func (o Options) kernels() []Kernel {
	if o.Kernels == nil {
		return DefaultKernels()
	}
	return o.Kernels
}

// Plan checks a search before it runs — the grid, every kernel, and the
// size limits above — and returns how many cells it will measure. Search
// calls it first; the tuning service calls it on submit, so a request it
// would refuse fails there instead of inside a queued job.
func (o Options) Plan() (cells int, err error) {
	g := o.Grid
	if err := g.validate(); err != nil {
		return 0, err
	}
	perOp := make(map[string]int) // a kernel's cell count depends only on its op
	for _, k := range o.kernels() {
		if k.Bytes > maxBytes {
			return 0, fmt.Errorf("tune: kernel bytes %d over the %d limit", k.Bytes, maxBytes)
		}
		if k.Nodes > maxRanks/g.LaunchPPN {
			return 0, fmt.Errorf("tune: kernel nodes %d x launch PPN %d over the %d-rank limit",
				k.Nodes, g.LaunchPPN, maxRanks)
		}
		if err := k.validate(); err != nil {
			return 0, err
		}
		n, ok := perOp[k.Op]
		if !ok {
			n, _ = g.walk(k.Op, maxCells-cells, nil)
			perOp[k.Op] = n
		}
		if cells += n; cells > maxCells {
			return 0, fmt.Errorf("tune: search of more than %d cells", maxCells)
		}
	}
	return cells, nil
}

// Search sweeps the grid over every kernel and returns the tuning table.
// All cells across all kernels fan through one index-keyed worker pool, so
// the result is byte-identical at any worker count.
func Search(opts Options) (*Table, error) {
	total, err := opts.Plan()
	if err != nil {
		return nil, err
	}
	kernels := opts.kernels()
	store := opts.Cache
	if store == nil {
		store = cache.New(0)
	}
	// Flatten (kernel, cell) into one case list.
	type caseRef struct {
		ki     int
		params Params
		hash   string
	}
	cases := make([]caseRef, 0, total)
	perKernel := make([]int, len(kernels))
	for ki, k := range kernels {
		perKernel[ki], _ = opts.Grid.walk(k.Op, total, func(p Params) {
			cases = append(cases, caseRef{ki, p, cellHash(k, p, opts.Grid.LaunchPPN)})
		})
	}
	// Issue expensive replicas first. Grid cases span orders of magnitude
	// (a 1-rank kernel vs a 216-rank one): under FIFO order a worker that
	// draws a monster case last keeps the whole pool waiting on it alone.
	// Simulation cost scales with the event count — roughly ranks × bytes
	// for the collective schedules. The order affects scheduling only;
	// results stay index-keyed, so the table is still byte-identical at
	// any worker count.
	costs := make([]float64, len(cases))
	for i, cr := range cases {
		k := kernels[cr.ki]
		costs[i] = float64(k.Nodes*opts.Grid.LaunchPPN) * float64(k.Bytes)
	}
	var mu sync.Mutex
	done := 0
	cells, err := runner.MapOrder(len(cases), opts.Workers, runner.OrderByCostDesc(costs), func(i int) (Cell, error) {
		cr := cases[i]
		k := kernels[cr.ki]
		cell := Cell{Params: cr.params, Hash: cr.hash}
		var err error
		cell.BW, cell.Cached, err = store.GetOrCompute(cr.hash, func() (float64, error) {
			return Measure(k, cr.params, opts.Grid.LaunchPPN)
		})
		if err != nil || opts.OnCell == nil {
			return cell, err
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		opts.OnCell(k.Name(), cell, done, len(cases))
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Version:   TableVersion,
		Grid:      opts.Grid,
		GoVersion: runtime.Version(),
	}
	t.ConfigHash = t.configHash(kernels)
	ci := 0
	for ki, k := range kernels {
		e := Entry{Kernel: k, Cells: append([]Cell(nil), cells[ci:ci+perKernel[ki]]...)}
		ci += perKernel[ki]
		e.pickBest()
		t.Entries = append(t.Entries, e)
	}
	return t, nil
}

// MeasureCached is Measure through a content-addressed store: the cell's
// provenance hash is looked up first, concurrent identical cells coalesce
// onto one simulation, and the measured value is stored for the next
// caller. The returned hit flag reports whether a simulation was avoided.
func MeasureCached(c *cache.Store, k Kernel, p Params, launchPPN int) (bw float64, hit bool, err error) {
	if err := k.validate(); err != nil {
		return 0, false, err
	}
	if err := p.validate(); err != nil {
		return 0, false, err
	}
	return c.GetOrCompute(cellHash(k, p, launchPPN), func() (float64, error) {
		return Measure(k, p, launchPPN)
	})
}

// pickBest selects the entry's winner: the highest bandwidth, first cell in
// canonical order on exact ties.
func (e *Entry) pickBest() {
	for _, c := range e.Cells {
		if c.BW > e.BestBW {
			e.BestBW = c.BW
			e.Best = c.Params
		}
	}
}
