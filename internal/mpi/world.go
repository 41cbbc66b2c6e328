// Package mpi implements an MPI-3-like message-passing library on top of
// the simulated fabric in internal/simnet: communicators with Dup/Split,
// blocking and nonblocking point-to-point operations with tag matching and
// an eager/rendezvous protocol, and blocking and nonblocking collectives
// (broadcast, reduce, allreduce, barrier, allgather, reduce-scatter) built
// from point-to-point messages with the classical algorithms (binomial,
// recursive halving/doubling, Rabenseifner, ring, Bruck, shift). Their
// rounds are of three kinds, exchange, exchangeReduce and recvReduce (see
// coll.go), and every staged call posts through one helper that takes its
// tag and charges its staging. Nonblocking collectives progress as
// independent simulation processes that share the posting rank's CPU
// resource, which is the mechanism that makes communication-communication
// overlap profitable — and bounded — exactly as in the paper.
package mpi

import (
	"fmt"
	"sort"
	"strings"

	"commoverlap/internal/metrics"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
	"commoverlap/internal/trace"
)

// AnySource and AnyTag are wildcard values for Recv and Irecv.
const (
	AnySource = -1
	AnyTag    = -1
)

// World owns the set of ranks of a simulated MPI job.
type World struct {
	Eng *sim.Engine
	Net *simnet.Net

	ranks      []*rankState
	ctxCounter int
	splitSlots map[splitKey]*splitSlot

	// BcastLongMsg and ReduceLongMsg are this job's collective-algorithm
	// switch-over points (see DefaultBcastLongMsg/DefaultReduceLongMsg):
	// payloads above them select the long-message algorithms (van de Geijn
	// scatter-allgather, Rabenseifner). They are per-World so concurrent
	// simulator replicas — ablations, the overlap auto-tuner — can study
	// different switch points without mutating shared state. Set them
	// before Launch; every rank of the job observes the same values.
	BcastLongMsg  int64
	ReduceLongMsg int64

	// BcastAlg, ReduceAlg and AllreduceAlg force one member of the
	// collective-algorithm family for every call on this World, bypassing
	// the switch points above. The zero value (AlgAuto) keeps the
	// switch-point selection. See BcastAlgs/ReduceAlgs/AllreduceAlgs for
	// the valid names; an unknown name panics at the first collective.
	// Like the switch points, set them before Launch.
	BcastAlg     string
	ReduceAlg    string
	AllreduceAlg string

	// Probe, when non-nil, observes every protocol step of every message
	// (post, in-order envelope admission, match) as a typed trace record.
	// The schedule-exploration checker installs it to verify non-overtaking
	// and admission-order invariants from outside the package.
	Probe func(trace.MsgEvent)

	// Progress enables the progress-rank engine: that many ranks per node
	// (the highest-numbered ranks on each node, analogous to the PPN
	// convention of parking the highest lanes) become dedicated progress
	// agents. The remaining ranks' per-chunk transfer work is booked
	// round-robin across the agents' CPU resources — sibling pipelines
	// advance without the owner polling, and parked ranks wake eagerly on
	// completion instead of at the next poll tick. Set it before Launch; the
	// zero value keeps the seed model (each rank progresses its own NIC
	// lane). When the fabric's DMA-offload engine (Config.OffloadRate) is
	// also enabled, the progress-rank wiring takes precedence on the ranks
	// it covers.
	Progress int

	// MaxPollTime bounds how long PollWait will poll one request, in
	// virtual seconds. A parked rank whose wake-up never comes would
	// otherwise spin forever in virtual time (the engine never runs out of
	// events); exceeding the bound panics with a diagnosis instead. Zero
	// disables the guard.
	MaxPollTime float64

	// Metrics, when non-nil, receives the library's virtual-time counters:
	// eager vs rendezvous message counts and bytes, per-kind collective
	// posts, MPI_Test poll spins, and park/wake events. Install it with
	// SetMetrics, which also points the fabric's feeds at the same
	// registry. A nil registry costs nothing.
	Metrics *metrics.Registry

	// UnsafeNoMsgOrder disables the receiver-side in-order envelope
	// admission, reverting message matching to raw transport-arrival order.
	// It exists ONLY as fault injection for the checker's self-test (the
	// injected bug must be caught by the non-overtaking invariant) and must
	// never be set in production code.
	UnsafeNoMsgOrder bool

	open         []*Request // in-flight (unfired) requests, in no particular order
	parks, wakes int        // RunActive park/wake accounting

	// Free lists for the collective hot path's per-operation objects:
	// requests (each with its completion gate), receiver-side envelopes,
	// posted-receive records, and the float64 scratch backing eager clones
	// and reduction temporaries (bucketed by power-of-two capacity). Owned
	// by the World — never shared across jobs — so parallel replicas stay
	// isolated and runs remain byte-identical at any worker count. The
	// engine's cooperative execution (exactly one process at a time) means
	// none of them needs locking.
	reqPool    []*Request
	msgPool    []*inflight
	recvPool   []*postedRecv
	scratchF64 [64][][]float64

	// idGroup is the world communicator's rank mapping, shared by every
	// rank's Comm (the group is immutable after Launch).
	idGroup []int
}

// reqInfo describes an open request for teardown diagnostics.
type reqInfo struct {
	kind string // "isend", "irecv", "ibcast", ...
	rank int    // world rank that posted it
	ctx  int    // communicator context id
}

// pairKey identifies one direction of one rank pair within one
// communicator. On the sender side the peer is the destination's world
// rank; on the receiver side it is the sender's comm rank (which, together
// with ctx, uniquely names the sending process).
type pairKey struct {
	ctx, peer int
}

// rankState is the per-rank communication engine state shared by the rank's
// main process and any nonblocking-collective child processes.
type rankState struct {
	w          *World
	rank       int
	ep         *simnet.Endpoint
	unexpected []*inflight
	posted     []*postedRecv

	sendSeq map[pairKey]int64 // next seq to assign, per (ctx, dst world rank)
	recvSeq map[pairKey]int64 // next seq to admit, per (ctx, src comm rank)
	held    []*inflight       // envelopes that arrived ahead of their turn

	isProg bool // this rank serves as a progress agent for its node
}

// NewWorld creates size ranks placed on nodes according to placement
// (placement[rank] = node index). A nil placement puts every rank on node
// rank % net nodes.
func NewWorld(net *simnet.Net, size int, placement []int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size %d", size)
	}
	if placement != nil && len(placement) != size {
		return nil, fmt.Errorf("mpi: placement has %d entries for %d ranks", len(placement), size)
	}
	w := &World{
		Eng:           net.Eng,
		Net:           net,
		splitSlots:    make(map[splitKey]*splitSlot),
		BcastLongMsg:  DefaultBcastLongMsg,
		ReduceLongMsg: DefaultReduceLongMsg,
		MaxPollTime:   3600, // one virtual hour: far beyond any legitimate sim
	}
	w.ranks = make([]*rankState, size)
	for r := 0; r < size; r++ {
		node := r % net.Cfg.Nodes
		if placement != nil {
			node = placement[r]
		}
		w.ranks[r] = &rankState{
			w: w, rank: r, ep: net.NewEndpoint(node),
			sendSeq: make(map[pairKey]int64),
			recvSeq: make(map[pairKey]int64),
		}
	}
	return w, nil
}

// newRequest allocates (or recycles) a tracked request. Every request the
// library creates goes through here so that teardown can enumerate the ones
// never completed.
func (w *World) newRequest(sp *sim.Proc, kind string, rank, ctx int) *Request {
	var req *Request
	if n := len(w.reqPool); n > 0 {
		req = w.reqPool[n-1]
		w.reqPool[n-1] = nil
		w.reqPool = w.reqPool[:n-1]
	} else {
		req = &Request{w: w}
	}
	req.sp = sp
	req.info = reqInfo{kind: kind, rank: rank, ctx: ctx}
	req.openAt = len(w.open)
	w.open = append(w.open, req)
	return req
}

// complete finishes r: it removes r from the open-request table, moving the
// last open request into its slot, and then fires r's gate.
func (r *Request) complete() {
	open := r.w.open
	last := len(open) - 1
	q := open[last]
	open[r.openAt], q.openAt = q, r.openAt
	open[last] = nil
	r.w.open = open[:last]
	r.done.Fire()
}

// freeRequest recycles an internally owned request, gate included, after
// its completion has been consumed. Only the library's own blocking
// wrappers and collective schedules may call it: requests handed to the
// application are never recycled, so user code can hold one (and Test/Wait
// it) indefinitely.
func (w *World) freeRequest(r *Request) {
	if !r.done.Fired() {
		panic("mpi: freeRequest on an incomplete request")
	}
	r.done.Reset()
	r.sp = nil
	r.Status = Status{}
	w.reqPool = append(w.reqPool, r)
}

// getMsg and putMsg recycle receiver-side envelopes. putMsg zeroes the
// record so the pool retains no payload or request references.
func (w *World) getMsg() *inflight {
	if n := len(w.msgPool); n > 0 {
		m := w.msgPool[n-1]
		w.msgPool[n-1] = nil
		w.msgPool = w.msgPool[:n-1]
		return m
	}
	return &inflight{}
}

func (w *World) putMsg(m *inflight) {
	*m = inflight{}
	w.msgPool = append(w.msgPool, m)
}

// getRecv and putRecv recycle posted-receive records.
func (w *World) getRecv() *postedRecv {
	if n := len(w.recvPool); n > 0 {
		r := w.recvPool[n-1]
		w.recvPool[n-1] = nil
		w.recvPool = w.recvPool[:n-1]
		return r
	}
	return &postedRecv{}
}

func (w *World) putRecv(r *postedRecv) {
	*r = postedRecv{}
	w.recvPool = append(w.recvPool, r)
}

// emit publishes a message-protocol step to the Probe hook, if installed.
func (w *World) emit(kind trace.MsgKind, m *inflight, dstWorld int) {
	if w.Probe == nil {
		return
	}
	w.Probe(trace.MsgEvent{
		Kind: kind, T: w.Eng.Now(),
		Ctx: m.ctx, Src: m.src, Dst: dstWorld, Tag: m.tag,
		Seq: m.seq, Bytes: m.bytes,
	})
}

// SetMetrics installs one registry as the sink for both the MPI library's
// and the underlying fabric's virtual-time metrics. Install it before
// Launch; the simulation's cooperative execution keeps the feeds
// deterministic.
func (w *World) SetMetrics(reg *metrics.Registry) {
	w.Metrics = reg
	w.Net.Metrics = reg
}

// ResourceSnapshots returns the accounting snapshot of every FIFO resource
// the job touches (fabric wires and buses plus each rank's CPU and NIC
// lanes), in visiting order. Call it after Engine.Run to compute
// per-resource utilization over the run's elapsed virtual time.
func (w *World) ResourceSnapshots() []sim.ResourceStats {
	var out []sim.ResourceStats
	w.EachResource(func(r *sim.Resource) { out = append(out, r.Snapshot()) })
	return out
}

// EachEndpoint visits every rank's fabric endpoint in rank order. The
// fault-injection layer uses it to install per-lane perturbation hooks with
// the rank and node identity preserved (EachResource flattens that away).
func (w *World) EachEndpoint(f func(rank int, ep *simnet.Endpoint)) {
	for r, st := range w.ranks {
		f(r, st.ep)
	}
}

// EachResource visits every FIFO resource the job touches: the fabric's
// wires and buses plus each rank's CPU and NIC lanes. Checkers use it to
// install reservation audits.
func (w *World) EachResource(f func(*sim.Resource)) {
	w.Net.EachResource(f)
	for _, st := range w.ranks {
		f(st.ep.CPU)
		f(st.ep.NIC)
	}
}

// CheckClean verifies that the job tore down completely: every request
// completed, every posted receive matched, no message was left undelivered
// or stuck awaiting admission, every parked rank was woken, and no
// simulation process is still alive. It returns nil when clean and an error
// enumerating every leak otherwise. Call it after Engine.Run; tests should
// treat any non-nil result as a failure.
func (w *World) CheckClean() error {
	var leaks []string
	if n := len(w.open); n > 0 {
		descs := make([]string, 0, n)
		for _, r := range w.open {
			descs = append(descs, fmt.Sprintf("%s(rank %d, ctx %d)", r.info.kind, r.info.rank, r.info.ctx))
		}
		sort.Strings(descs)
		leaks = append(leaks, fmt.Sprintf("%d pending request(s): %v", n, descs))
	}
	for _, st := range w.ranks {
		if n := len(st.posted); n > 0 {
			leaks = append(leaks, fmt.Sprintf("rank %d: %d posted receive(s) never matched", st.rank, n))
		}
		if n := len(st.unexpected); n > 0 {
			leaks = append(leaks, fmt.Sprintf("rank %d: %d unexpected message(s) never received", st.rank, n))
		}
		if n := len(st.held); n > 0 {
			leaks = append(leaks, fmt.Sprintf("rank %d: %d envelope(s) stuck awaiting in-order admission", st.rank, n))
		}
	}
	if w.parks != w.wakes {
		leaks = append(leaks, fmt.Sprintf("%d rank(s) parked but never woken (%d parks, %d wakes)",
			w.parks-w.wakes, w.parks, w.wakes))
	}
	if n := w.Eng.Live(); n > 0 {
		leaks = append(leaks, fmt.Sprintf("%d live simulation process(es): %v", n, w.Eng.LiveProcs()))
	}
	if len(leaks) == 0 {
		return nil
	}
	return fmt.Errorf("mpi: world not clean at teardown:\n  %s", strings.Join(leaks, "\n  "))
}

// Proc is the handle a rank's main function uses for all MPI calls. One is
// passed to each rank body launched by Launch.
type Proc struct {
	w     *World
	rank  int
	sp    *sim.Proc
	st    *rankState
	world *Comm
}

// wireProgressLanes elects the highest-numbered Progress ranks on each node
// as progress agents and redirects every sibling endpoint's chunk-pipeline
// work onto the agents' CPU resources (round-robin per chunk, consumer-
// tagged per owner). The agent count is clamped so each node keeps at least
// one non-agent rank.
func (w *World) wireProgressLanes() {
	byNode := make(map[int][]*rankState)
	var nodes []int
	for _, st := range w.ranks {
		if len(byNode[st.ep.Node]) == 0 {
			nodes = append(nodes, st.ep.Node)
		}
		byNode[st.ep.Node] = append(byNode[st.ep.Node], st)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		sts := byNode[node]
		nprog := w.Progress
		if nprog > len(sts)-1 {
			nprog = len(sts) - 1
		}
		if nprog <= 0 {
			continue
		}
		lanes := make([]*sim.Resource, 0, nprog)
		for _, st := range sts[len(sts)-nprog:] {
			st.isProg = true
			lanes = append(lanes, st.ep.CPU)
		}
		for _, st := range sts[:len(sts)-nprog] {
			st.ep.SetProgressLanes(lanes, 0)
		}
	}
}

// Launch spawns one simulation process per rank running body. Call
// Engine.Run afterwards to execute the job.
func (w *World) Launch(body func(p *Proc)) {
	if w.Progress < 0 {
		panic(fmt.Sprintf("mpi: World.Progress = %d, need >= 0", w.Progress))
	}
	if w.Progress > 0 {
		w.wireProgressLanes()
	}
	if w.idGroup == nil {
		w.idGroup = identityGroup(len(w.ranks))
	}
	for r := 0; r < len(w.ranks); r++ {
		st := w.ranks[r]
		w.Eng.Spawn(fmt.Sprintf("rank%d", r), func(sp *sim.Proc) {
			p := &Proc{w: w, rank: st.rank, sp: sp, st: st}
			p.world = &Comm{p: p, ctx: 0, rank: st.rank, group: w.idGroup}
			body(p)
		})
	}
	w.ctxCounter = 1
}

// Rank returns the world rank of this process.
func (p *Proc) Rank() int { return p.rank }

// Now returns the current virtual time in seconds.
func (p *Proc) Now() float64 { return p.sp.Now() }

// World returns the communicator spanning all ranks.
func (p *Proc) World() *Comm { return p.world }

// Sleep blocks the rank for d seconds of virtual time (models usleep).
func (p *Proc) Sleep(d float64) { p.sp.Sleep(d) }

// Compute charges flops of dense arithmetic to this rank, assuming
// ppnActive ranks share the node's cores.
func (p *Proc) Compute(flops float64, ppnActive int) {
	p.w.Net.Compute(p.sp, p.st.ep, flops, ppnActive)
}

func identityGroup(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}
