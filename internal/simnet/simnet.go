// Package simnet models a distributed-memory cluster fabric on top of the
// sim engine: nodes with a full-duplex network link each, and per-process
// CPU resources that pay software overheads (matching, marshalling, copies).
//
// A message is segmented into protocol chunks. Chunk k of a transfer flows
// store-and-forward through four FIFO resources
//
//	sender CPU -> sender-node egress wire -> receiver-node ingress wire -> receiver CPU
//
// so chunks of one message pipeline across stages, and chunks of concurrent
// messages interleave on shared stages. This reproduces the two effects the
// paper exploits:
//
//   - a single process cannot saturate the wire, because its per-byte
//     software cost (1/CPUCopyRate) exceeds the per-byte wire cost
//     (1/WireBandwidth); more processes per node parallelize the CPU stages;
//   - while one operation's CPU stage (or synchronization gap) runs, the
//     wire is free for another outstanding operation's chunks, so overlapped
//     communication raises wire utilization.
package simnet

import (
	"fmt"
	"strings"

	"commoverlap/internal/metrics"
	"commoverlap/internal/sim"
)

// Config holds the machine model parameters. The defaults are calibrated to
// the Stampede2 Skylake + 100 Gbps Omni-Path numbers reported in the paper
// (peak unidirectional p2p bandwidth ~12 GB/s, microsecond-scale latency,
// node DGEMM rate ~1.5 TF with 48 cores).
type Config struct {
	Nodes int // number of nodes in the machine

	// Wire (per node, per direction).
	WireBandwidth float64 // bytes/s through a node's NIC, each direction
	WireLatency   float64 // seconds of leading-edge latency per chunk

	// CoreBandwidth models the fabric's shared core (Stampede2's fat tree
	// has six core switches): aggregate bytes/s available to all
	// inter-node traffic crossing the core. Zero means a non-blocking
	// fabric (the default; Stampede2's tree is close to non-blocking for
	// 64 nodes). Positive values let experiments study oversubscription.
	CoreBandwidth float64

	// Per-process software costs.
	CPUCopyRate  float64 // bytes/s one process can marshal/inject or extract (eager copies)
	DMARate      float64 // bytes/s of residual CPU involvement on the zero-copy (rendezvous/DMA) path
	SendOverhead float64 // s of sender CPU per chunk (header, descriptor)
	RecvOverhead float64 // s of receiver CPU per chunk (matching, completion)
	MsgOverhead  float64 // s of sender CPU once per message (setup)

	// Protocol.
	ChunkBytes int64 // segmentation size of the pipeline
	EagerLimit int64 // messages <= this skip the rendezvous handshake

	// Intra-node transport (shared memory).
	ShmBandwidth float64 // bytes/s of a node's memory bus for IPC copies
	ShmLatency   float64 // seconds per intra-node message

	// Computation.
	ReduceRate float64 // bytes/s a process combines during reductions
	StageRate  float64 // bytes/s for staging/packing a nonblocking collective
	NodeFlops  float64 // dense-GEMM flop/s of a whole node (all cores)

	// OffloadRate enables the DMA-offload progress engine: a per-node
	// offload resource (the NIC's DMA engine, PCIe-attached) that absorbs
	// the per-chunk forwarding work all of the node's endpoints would
	// otherwise pay on their private NIC lanes, at this many bytes/s.
	// Zero (the default) disables the engine and leaves the seed model's
	// schedule untouched.
	OffloadRate float64

	// Topo selects the fabric topology. The zero value is the flat fabric
	// (every pair of nodes one wire hop apart, optionally through the shared
	// core); see TopoSpec for the hierarchical and torus variants.
	Topo TopoSpec
}

// DefaultOffloadRate is the byte rate the DMA-offload engine runs at when a
// caller enables it without choosing one: a PCIe-generation-matched 32 GB/s,
// comfortably above the wire's 12.4 GB/s in each direction, so the shared
// engine can keep a node's full-duplex wire saturated but still serializes
// when many endpoints burst at once.
const DefaultOffloadRate = 32e9

// DefaultConfig returns the Stampede2-like calibration used by the
// reproduction benchmarks. See DESIGN.md §5 for the calibration targets.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:         nodes,
		WireBandwidth: 12.4e9,  // ~12 GB/s peak unidirectional (paper Fig. 3)
		WireLatency:   1.0e-6,  // ~1 us Omni-Path fabric latency
		CPUCopyRate:   8.0e9,   // single-process copy rate, binds eager/small messages
		DMARate:       10.0e9,  // per-process DMA progress: one rank cannot fill the wire
		SendOverhead:  0.35e-6, // per-chunk descriptor/progress cost
		RecvOverhead:  0.35e-6,
		MsgOverhead:   1.2e-6,
		ChunkBytes:    256 << 10,
		EagerLimit:    64 << 10,
		ShmBandwidth:  40.0e9, // aggregate per-node memory-bus rate for IPC copies
		ShmLatency:    0.6e-6,
		ReduceRate:    2.6e9,   // streaming sum: 2 loads + 1 store, NUMA-bound
		StageRate:     12.0e9,  // one packing pass over the buffer
		NodeFlops:     1.56e12, // measured in the paper: 0.01794 s / 2 GEMMs
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("simnet: Nodes = %d, need > 0", c.Nodes)
	case c.WireBandwidth <= 0 || c.CPUCopyRate <= 0 || c.DMARate <= 0 || c.ShmBandwidth <= 0:
		return fmt.Errorf("simnet: bandwidths must be positive")
	case c.ChunkBytes <= 0:
		return fmt.Errorf("simnet: ChunkBytes = %d, need > 0", c.ChunkBytes)
	case c.WireLatency < 0 || c.SendOverhead < 0 || c.RecvOverhead < 0 || c.MsgOverhead < 0 || c.ShmLatency < 0:
		return fmt.Errorf("simnet: latencies and overheads must be >= 0")
	case c.CoreBandwidth < 0:
		return fmt.Errorf("simnet: CoreBandwidth must be >= 0 (0 = non-blocking)")
	case c.ReduceRate <= 0 || c.StageRate <= 0 || c.NodeFlops <= 0:
		return fmt.Errorf("simnet: compute rates must be positive")
	case c.OffloadRate < 0:
		return fmt.Errorf("simnet: OffloadRate must be >= 0 (0 = no offload engine)")
	}
	return c.Topo.validate(c.Nodes)
}

// FaultModel is the hook a perturbation layer (internal/faults) implements
// to disturb the wire pipeline. The engine serializes every call, so
// implementations need no locking; determinism requires each answer be a
// pure function of the implementation's seeded state and the call order,
// which the deterministic engine already fixes.
type FaultModel interface {
	// ChunkDelay returns extra leading-edge latency, in seconds, for one
	// chunk crossing the fabric from src to dst node (0 for none).
	ChunkDelay(src, dst int) float64
	// ChunkFate decides whether one transmission attempt of a chunk is
	// lost in transit. attempt counts from 0. On loss the sender backs off
	// for the returned timeout — the model's retransmission timer, which
	// the injector grows exponentially per attempt — and then retransmits.
	// Implementations must eventually answer lost=false for every chunk so
	// payloads are never silently dropped.
	ChunkFate(src, dst, attempt int) (lost bool, timeout float64)
}

// Net is an instance of the fabric bound to a sim engine.
type Net struct {
	Eng *sim.Engine
	Cfg Config

	// Metrics, when non-nil, receives the fabric's virtual-time counters:
	// bytes on each wire, chunks pushed and in flight, transfers started.
	// A nil registry costs nothing: every Registry method is nil-receiver
	// safe, so call sites never guard.
	Metrics *metrics.Registry

	// Faults, when non-nil, perturbs the wire pipeline with per-chunk
	// latency jitter and transient loss (repaired by timeout + exponential
	// backoff retransmission in the transfer path). Install it before any
	// transfer starts; internal/faults provides the standard implementation.
	Faults FaultModel

	nodes []*nodeRes
	topo  Topology
	nep   int // endpoints created, for naming

	// xferPool recycles the per-transfer state (both halves' state
	// machines and step Procs, and the chunk feed's slices) across
	// transfers. The engine runs exactly one process at a time, so a plain
	// slice needs no locking; each transfer's two halves release their
	// shared state back here when the last one ends.
	xferPool []*xfer
}

type nodeRes struct {
	egress  *sim.Resource
	ingress *sim.Resource
	shm     *sim.Resource
	// offload is the node's DMA engine, created only when Config.OffloadRate
	// is positive; endpoints on the node charge chunk forwarding to it
	// instead of their private NIC lanes.
	offload *sim.Resource

	egressBytes int64 // inter-node payload accounting (Table IV)

	// label is the node's metrics label ("node3"), cached at construction so
	// the per-chunk metric calls in the transfer pipeline never format.
	label string
}

// New builds a fabric on eng with the given configuration.
func New(eng *sim.Engine, cfg Config) (*Net, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Net{Eng: eng, Cfg: cfg}
	n.topo = buildTopology(&n.Cfg)
	n.nodes = make([]*nodeRes, cfg.Nodes)
	for i := range n.nodes {
		n.nodes[i] = &nodeRes{
			egress:  sim.NewResource(fmt.Sprintf("node%d.egress", i)),
			ingress: sim.NewResource(fmt.Sprintf("node%d.ingress", i)),
			shm:     sim.NewResource(fmt.Sprintf("node%d.shm", i)),
			label:   fmt.Sprintf("node%d", i),
		}
		if cfg.OffloadRate > 0 {
			n.nodes[i].offload = sim.NewResource(fmt.Sprintf("node%d.offload", i))
		}
	}
	return n, nil
}

// Endpoint is a process's attachment to the fabric: a home node plus a
// private CPU resource that all of the process's communication software
// costs are charged to.
type Endpoint struct {
	Node int
	// CPU carries the process's software work: staging/packing collective
	// buffers, posting overheads, and reduction arithmetic.
	CPU *sim.Resource
	// NIC carries the process's transfer-progress work: per-chunk
	// marshalling/injection and extraction. It is a separate lane so that
	// in-flight messages keep progressing while the process computes — the
	// property (hardware DMA / progress engine) that makes overlapping
	// communication with communication profitable at all.
	NIC *sim.Resource

	// prog, when non-empty, is the endpoint's progress-lane group: the
	// per-chunk forwarding work that would occupy NIC is instead booked
	// round-robin across these resources (a progress rank's CPU, or the
	// node's DMA offload engine), tagged with this endpoint's identity so
	// per-consumer accounting survives the redirect. progRate, when
	// positive, replaces the transfer's per-byte software rate (a hardware
	// engine moves bytes at its own speed); zero keeps the caller's rate
	// (software progress by another rank's CPU is no faster than one's own).
	prog     []*sim.Resource
	progRate float64
	progIdx  int
	progTag  string
}

// SetProgressLanes installs (or, with an empty group, removes) the
// endpoint's progress-lane group. The MPI layer calls this when wiring
// progress ranks; the DMA-offload engine installs itself at NewEndpoint.
// Chunks of one transfer still chain FIFO through the chunk feed, so
// redirecting never reorders a message — it only changes which serial
// facility is billed, and at what byte rate.
func (ep *Endpoint) SetProgressLanes(lanes []*sim.Resource, byteRate float64) {
	ep.prog = lanes
	ep.progRate = byteRate
	ep.progIdx = 0
}

// nicStage books one chunk-pipeline stage (overhead seconds plus bytes at
// rate) for the endpoint: on its private NIC lane by default, or on the
// next progress lane in round-robin order when a group is installed.
func (ep *Endpoint) nicStage(ready, overhead, bytes, rate float64) (start, done float64) {
	if len(ep.prog) == 0 {
		return ep.NIC.Reserve(ready, overhead+bytes/rate)
	}
	if ep.progRate > 0 {
		rate = ep.progRate
	}
	r := ep.prog[ep.progIdx]
	ep.progIdx++
	if ep.progIdx == len(ep.prog) {
		ep.progIdx = 0
	}
	return r.ReserveAs(ep.progTag, ready, overhead+bytes/rate)
}

// NewEndpoint attaches a process to node (0-based).
func (n *Net) NewEndpoint(node int) *Endpoint {
	if node < 0 || node >= n.Cfg.Nodes {
		panic(fmt.Sprintf("simnet: node %d out of range [0,%d)", node, n.Cfg.Nodes))
	}
	ep := &Endpoint{
		Node: node,
		CPU:  sim.NewResource(fmt.Sprintf("ep%d.cpu", n.nep)),
		NIC:  sim.NewResource(fmt.Sprintf("ep%d.nic", n.nep)),
	}
	ep.progTag = ep.NIC.Name
	if nd := n.nodes[node]; nd.offload != nil {
		ep.SetProgressLanes([]*sim.Resource{nd.offload}, n.Cfg.OffloadRate)
	}
	n.nep++
	return ep
}

// LaneClass sorts a resource into the lane class its fabric name marks:
// "wire" for a node's egress wire, "cpu" and "nic" for an endpoint's CPU
// and NIC lanes, "offload" for a node's DMA offload engine, and "" for the
// rest (ingress wires, shared-memory buses, interior links). Utilization
// reports average busy fractions per class.
func LaneClass(name string) string {
	switch {
	case strings.HasSuffix(name, ".egress"):
		return "wire"
	case strings.HasSuffix(name, ".cpu"):
		return "cpu"
	case strings.HasSuffix(name, ".nic"):
		return "nic"
	case strings.HasSuffix(name, ".offload"):
		return "offload"
	}
	return ""
}

// LaneUtil is the mean busy fraction of each lane class (LaneClass) over a
// run, in [0, 1].
type LaneUtil struct {
	Wire float64 // node egress wires
	CPU  float64 // rank CPU lanes
	NIC  float64 // rank NIC lanes
}

// MeanLaneUtil folds resource snapshots into the mean busy fraction of each
// lane class over elapsed seconds of virtual time. It sums in snapshot
// order, so a caller that keeps its order keeps its bytes.
func MeanLaneUtil(snaps []sim.ResourceStats, elapsed float64) LaneUtil {
	var u LaneUtil
	var nWire, nCPU, nNIC int
	for _, s := range snaps {
		f := s.Utilization(elapsed)
		switch LaneClass(s.Name) {
		case "wire":
			u.Wire += f
			nWire++
		case "cpu":
			u.CPU += f
			nCPU++
		case "nic":
			u.NIC += f
			nNIC++
		}
	}
	if nWire > 0 {
		u.Wire /= float64(nWire)
	}
	if nCPU > 0 {
		u.CPU /= float64(nCPU)
	}
	if nNIC > 0 {
		u.NIC /= float64(nNIC)
	}
	return u
}

// EachResource visits every FIFO resource the fabric owns (topology links —
// core switch, group uplinks/downlinks, torus rails — then per-node
// egress/ingress wires and shared-memory buses). Endpoint CPU/NIC resources
// belong to their creators and are not visited; the MPI layer's
// World.EachResource covers those. Checkers use this to install audits.
func (n *Net) EachResource(f func(*sim.Resource)) {
	for _, l := range n.topo.Links() {
		f(l.Res)
	}
	for _, nd := range n.nodes {
		f(nd.egress)
		f(nd.ingress)
		f(nd.shm)
		if nd.offload != nil {
			f(nd.offload)
		}
	}
}

// LinkUtilization reports the mean busy fraction of the topology's interior
// links per link class over a window (empty map for a flat non-blocking
// fabric, which has no interior links).
func (n *Net) LinkUtilization(elapsed float64) map[string]float64 {
	links := n.topo.Links()
	if len(links) == 0 || elapsed <= 0 {
		return nil
	}
	sum := make(map[string]float64)
	cnt := make(map[string]int)
	for _, l := range links {
		sum[l.Class] += l.Res.BusyTime() / elapsed
		cnt[l.Class]++
	}
	for c := range sum {
		sum[c] /= float64(cnt[c])
	}
	return sum
}

// EachWire visits each node's egress and ingress wire resources with the
// node's index. The fault-injection layer uses it to install per-link
// degradation hooks; unlike EachResource it preserves the node identity.
func (n *Net) EachWire(f func(node int, egress, ingress *sim.Resource)) {
	for i, nd := range n.nodes {
		f(i, nd.egress, nd.ingress)
	}
}

// TotalWireBytes sums the payload bytes every node's egress wire has carried
// (inter-node traffic only; shared-memory traffic is not counted): the
// machine-wide inter-node communication volume, the quantity the paper's
// Table IV estimates.
func (n *Net) TotalWireBytes() int64 {
	var t int64
	for i := range n.nodes {
		t += n.nodes[i].egressBytes
	}
	return t
}

// TransferFn moves size bytes from src to dst. onInjected(injArg) runs when
// the sender's buffer is reusable (all data has left the sending process)
// and onDelivered(delArg) when the last byte is available at the receiving
// process; either callback may be nil. Zero-byte transfers still pay
// per-message overheads and latency, which models control messages and
// barriers. Passing package-level functions plus caller-owned arguments
// makes the per-message fast path allocation-free; the callbacks run inline
// inside the transfer's step processes and must not block.
//
// The transfer has a sender half and a receiver half, each a state machine
// the engine steps inline at its own virtual times (a sim step process), so
// that every resource reservation is made at (or within one chunk of) its
// actual virtual start time. Reserving further ahead would punch unfillable
// holes into the FIFO next-free-time resources and serialize concurrent
// transfers that should interleave.
func (n *Net) TransferFn(src, dst *Endpoint, size int64, onInjected func(any), injArg any, onDelivered func(any), delArg any) {
	n.transfer(src, dst, size, n.Cfg.CPUCopyRate, onInjected, injArg, onDelivered, delArg)
}

// TransferBulkFn is the zero-copy (rendezvous/DMA) path: the wire bears the
// per-byte cost while the endpoints' CPUs pay only a small residual per-byte
// rate (DMARate) plus the per-chunk overheads. The MPI layer routes
// rendezvous payloads here; eager messages, which are copied through
// bounce buffers, use TransferFn.
func (n *Net) TransferBulkFn(src, dst *Endpoint, size int64, onInjected func(any), injArg any, onDelivered func(any), delArg any) {
	n.transfer(src, dst, size, n.Cfg.DMARate, onInjected, injArg, onDelivered, delArg)
}

func (n *Net) transfer(src, dst *Endpoint, size int64, cpuRate float64, onInj func(any), injArg any, onDel func(any), delArg any) {
	if size < 0 {
		panic("simnet: negative transfer size")
	}
	n.Metrics.Inc("net.transfers", "")
	x := n.getXfer()
	x.src, x.dst = src, dst
	x.size, x.cpuRate = size, cpuRate
	x.onInj, x.injArg = onInj, injArg
	x.onDel, x.delArg = onDel, delArg
	if src.Node != dst.Node {
		x.links, x.lat = n.topo.Route(src.Node, dst.Node)
	}
	// Pre-size the chunk feed: the chunk count is known at segmentation
	// time, so the per-chunk appends never reallocate mid-transfer.
	chunks := 1
	if size > n.Cfg.ChunkBytes {
		chunks = int((size + n.Cfg.ChunkBytes - 1) / n.Cfg.ChunkBytes)
	}
	x.feed.presize(chunks)
	n.Eng.SpawnStep(&x.txProc, "xfer-tx", x.txFn)
	n.Eng.SpawnStep(&x.rxProc, "xfer-rx", x.rxFn)
}

// xfer is one transfer in flight. Its sender and receiver halves are step
// processes (sim.Engine.SpawnStep) whose Procs it holds: state machines the
// engine steps inline, each resuming at its saved state (txAt, rxAt) and
// running until its next wait. The object is recycled whole, Procs
// included, through Net.xferPool: refs counts the halves still running, and
// the last one to finish releases it. txFn/rxFn are the tx/rx method values
// bound once at construction, so spawning the halves of a recycled transfer
// allocates nothing.
type xfer struct {
	n              *Net
	src, dst       *Endpoint
	size           int64
	cpuRate        float64
	links          []*Link // the route's interior links, inter-node transfers only
	lat            float64 // the route's leading-edge latency
	feed           chunkFeed
	onInj, onDel   func(any)
	injArg, delArg any
	refs           int8
	txFn, rxFn     func(*sim.Proc)
	txProc, rxProc sim.Proc

	// Sender half.
	txAt      txState
	remaining int64   // bytes not yet cut into chunks
	chunk     int64   // size of the chunk in flight
	cpuReady  float64 // when the sender CPU is free for the next chunk
	attempt   int     // transmission attempt of the chunk in flight, from 0
	timeout   float64 // retransmission timeout after a lost attempt

	// Receiver half.
	rxAt        rxState
	k           int     // index of the chunk being received
	at          float64 // when chunk k is ready for its next receive stage
	lastDeliver float64 // when the latest chunk's receiver-CPU stage ends
}

func (n *Net) getXfer() *xfer {
	if len(n.xferPool) > 0 {
		x := n.xferPool[len(n.xferPool)-1]
		n.xferPool = n.xferPool[:len(n.xferPool)-1]
		x.refs = 2
		return x
	}
	x := &xfer{n: n, refs: 2}
	x.txFn, x.rxFn = x.tx, x.rx
	return x
}

// release drops one half's reference. The last one returns the transfer to
// the pool with every field zeroed except the bindings and the feed's
// capacity, so a recycled transfer starts both halves in their first state
// with zero Procs.
func (x *xfer) release() {
	x.refs--
	if x.refs > 0 {
		return
	}
	x.feed.reset()
	*x = xfer{n: x.n, feed: x.feed, txFn: x.txFn, rxFn: x.rxFn}
	x.n.xferPool = append(x.n.xferPool, x)
}

// finish ends one half of the transfer: it reports the half's milestone
// through its callback, exits the step process and drops its reference.
// Exit comes first because the last release zeroes p with the rest of x.
func (x *xfer) finish(p *sim.Proc, cb func(any), arg any) {
	if cb != nil {
		cb(arg)
	}
	p.Exit()
	x.release()
}

// waitUntil books p's next event at t and reports true when t is ahead of
// the clock. Otherwise it books nothing and the state machine carries on
// inline, as a loop that only sleeps when it has to would.
func waitUntil(p *sim.Proc, t float64) bool {
	if t > p.Now() {
		p.WakeAt(t)
		return true
	}
	return false
}

// chunkFeed hands chunk availability times from the sender half to the
// receiver half of a transfer.
type chunkFeed struct {
	ready  []float64 // time chunk i has cleared the sender side
	bytes  []int64
	done   bool      // sender produced the last chunk
	waiter *sim.Proc // the receiver half while it is parked for the next push
}

func (f *chunkFeed) push(t float64, b int64, last bool) {
	f.ready = append(f.ready, t)
	f.bytes = append(f.bytes, b)
	f.done = f.done || last
	if w := f.waiter; w != nil {
		f.waiter = nil
		w.WakeAt(w.Now())
	}
}

// presize grows the feed's capacity to hold chunks entries, so the pipeline
// loop appends without reallocating.
func (f *chunkFeed) presize(chunks int) {
	if cap(f.ready) < chunks {
		f.ready = make([]float64, 0, chunks)
		f.bytes = make([]int64, 0, chunks)
	}
}

// reset empties the feed for reuse, keeping the slices' capacity.
func (f *chunkFeed) reset() {
	f.ready = f.ready[:0]
	f.bytes = f.bytes[:0]
	f.done = false
	f.waiter = nil
}

// txState is where the sender half resumes.
type txState uint8

const (
	txSetup    txState = iota // pay the per-message setup
	txCut                     // cut the next chunk and book its CPU stage
	txTransmit                // the CPU stage is over: put the chunk on the wire
	txBackoff                 // a lost attempt has cleared the wire
	txReinject                // the retransmission timeout has expired
)

// tx is the sender half: per-message setup, then per chunk a sender-CPU
// stage (marshal/copy) followed by an egress-wire (or shared-memory bus)
// occupancy. It paces on the CPU stage, waking at the end of every chunk's,
// so the egress reservation happens at the chunk's true start time and
// chunks of concurrent transfers interleave on shared resources.
//
// Under fault injection a transmission attempt can be lost in transit. The
// sender then waits for the attempt to clear the wire and out the
// retransmission timeout (the injector grows it exponentially per attempt),
// pays the re-injection descriptor cost on its NIC lane, and sends the chunk
// again. Every attempt occupies the wire: lost bytes are real traffic.
func (x *xfer) tx(p *sim.Proc) {
	n, cfg := x.n, &x.n.Cfg
	srcNode := n.nodes[x.src.Node]
	for {
		switch x.txAt {
		case txSetup:
			_, x.cpuReady = x.src.nicStage(p.Now(), cfg.MsgOverhead, 0, 1)
			x.remaining = x.size
			x.txAt = txCut
		case txCut:
			x.chunk = min(x.remaining, cfg.ChunkBytes)
			x.remaining -= x.chunk
			x.attempt = 0
			_, x.cpuReady = x.src.nicStage(x.cpuReady, cfg.SendOverhead, float64(x.chunk), x.cpuRate)
			x.txAt = txTransmit
			p.WakeAt(x.cpuReady)
			return
		case txTransmit:
			cb := float64(x.chunk)
			var cleared float64 // when the chunk clears the sender side
			if x.src.Node == x.dst.Node {
				_, cleared = srcNode.shm.Reserve(p.Now(), cb/cfg.ShmBandwidth)
				n.Metrics.Add("net.shm.bytes", srcNode.label, cb)
			} else {
				_, cleared = srcNode.egress.Reserve(p.Now(), cb/cfg.WireBandwidth)
				srcNode.egressBytes += x.chunk
				n.Metrics.Add("net.wire.bytes", srcNode.label, cb)
				if n.Faults != nil {
					lost, timeout := n.Faults.ChunkFate(x.src.Node, x.dst.Node, x.attempt)
					if lost {
						n.Metrics.Inc("net.chunks.lost", "")
						x.timeout = timeout
						x.txAt = txBackoff
						if waitUntil(p, cleared) {
							return
						}
						continue
					}
				}
			}
			n.Metrics.Inc("net.chunks", "")
			n.Metrics.AddGauge("net.chunks.inflight", "", 1)
			x.feed.push(cleared, x.chunk, x.remaining <= 0)
			if x.remaining <= 0 {
				x.finish(p, x.onInj, x.injArg)
				return
			}
			x.txAt = txCut
		case txBackoff:
			x.txAt = txReinject
			p.WakeAt(p.Now() + x.timeout) // WakeAt clamps a negative timeout to now
			return
		case txReinject:
			n.Metrics.Inc("net.chunks.retrans", "")
			_, reDone := x.src.nicStage(p.Now(), cfg.SendOverhead, 0, 1)
			x.attempt++
			x.txAt = txTransmit
			p.WakeAt(reDone)
			return
		}
	}
}

// rxState is where the receiver half resumes.
type rxState uint8

const (
	rxNext  rxState = iota // take chunk k off the feed, or finish
	rxRoute                // chunk k's leading edge has reached the route
	rxLinks                // the route's first interior link has carried chunk k
	rxCPU                  // chunk k has arrived: book the receiver-CPU stage
	rxDone                 // the last chunk's receiver-CPU stage is over
)

// rx is the receiver half: per chunk, the route's interior links
// (uplink/core/downlink or torus rails, in route order) then an ingress-wire
// occupancy starting when the chunk clears the sender's egress (plus the
// route's leading-edge latency), and a receiver-CPU stage (matching/copy)
// reserved exactly at the chunk's arrival. It reports delivery when the
// last chunk's CPU stage ends.
func (x *xfer) rx(p *sim.Proc) {
	n, cfg := x.n, &x.n.Cfg
	f := &x.feed
	for {
		switch x.rxAt {
		case rxNext:
			if len(f.ready) <= x.k {
				if !f.done {
					f.waiter = p // parked until the sender's next push
					return
				}
				x.rxAt = rxDone
				if waitUntil(p, x.lastDeliver) {
					return
				}
				continue
			}
			t := f.ready[x.k]
			if x.src.Node == x.dst.Node {
				x.at = max(t+cfg.ShmLatency, p.Now())
				x.rxAt = rxCPU
			} else {
				lat := x.lat
				if n.Faults != nil {
					// Per-chunk latency jitter from the fault model (0 when
					// the injector has jitter disabled).
					lat += n.Faults.ChunkDelay(x.src.Node, x.dst.Node)
				}
				x.at = t + lat
				x.rxAt = rxRoute
			}
			if waitUntil(p, x.at) {
				return
			}
		case rxRoute:
			// The chunk crosses the route's interior links and then the
			// receiver's ingress wire store-and-forward. The half paces on
			// the first stage and books the downstream stages with chained
			// ready times — the same one-chunk lookahead the sender's NIC
			// chain uses — so chunks of one transfer pipeline across the
			// stages while concurrent transfers still interleave chunk by
			// chunk on shared links.
			cb := float64(f.bytes[x.k])
			if len(x.links) == 0 {
				// Flat route: the ingress wire is the first stage; pacing on
				// it preserves the original fabric's schedule exactly.
				_, x.at = n.nodes[x.dst.Node].ingress.Reserve(p.Now(), cb/cfg.WireBandwidth)
				x.rxAt = rxCPU
			} else {
				l := x.links[0]
				_, x.at = l.Res.Reserve(p.Now(), cb/l.Bandwidth)
				x.rxAt = rxLinks
			}
			if waitUntil(p, x.at) {
				return
			}
		case rxLinks:
			cb := float64(f.bytes[x.k])
			for i, l := range x.links {
				if i > 0 {
					_, x.at = l.Res.Reserve(x.at, cb/l.Bandwidth)
				}
				l.bytes += f.bytes[x.k]
				n.Metrics.Add("net.link.bytes", l.Res.Name, cb)
			}
			_, x.at = n.nodes[x.dst.Node].ingress.Reserve(x.at, cb/cfg.WireBandwidth)
			x.rxAt = rxCPU
		case rxCPU:
			_, x.lastDeliver = x.dst.nicStage(x.at, cfg.RecvOverhead, float64(f.bytes[x.k]), x.cpuRate)
			n.Metrics.AddGauge("net.chunks.inflight", "", -1)
			x.k++
			x.rxAt = rxNext
		case rxDone:
			x.finish(p, x.onDel, x.delArg)
			return
		}
	}
}

// Compute charges flops of dense-matrix arithmetic to the calling process,
// assuming ppnActive processes share the node's cores equally. The work is a
// tagged reservation on the endpoint's CPU resource, so compute slices
// contend FIFO with the process's other CPU consumers (collective staging
// and reduction arithmetic posted by nonblocking children, sibling chunk
// pipelines when the rank serves as a progress agent) instead of silently
// owning the CPU; on an otherwise-idle CPU the timing is identical to a
// plain sleep. The caller blocks until the reservation completes.
func (n *Net) Compute(p *sim.Proc, ep *Endpoint, flops float64, ppnActive int) {
	if ppnActive < 1 {
		ppnActive = 1
	}
	rate := n.Cfg.NodeFlops / float64(ppnActive)
	_, done := ep.CPU.ReserveAs("compute", p.Now(), flops/rate)
	p.SleepUntil(done)
}

// ChargeCPU occupies the endpoint's CPU for dur seconds starting now and
// blocks the calling process until the reservation completes. It models
// local software work (posting a nonblocking collective, staging buffers,
// reduction arithmetic) that competes with the process's other
// communication activity.
func (n *Net) ChargeCPU(p *sim.Proc, ep *Endpoint, dur float64) {
	_, done := ep.CPU.Reserve(p.Now(), dur)
	p.SleepUntil(done)
}

// Utilization summarizes resource occupancy over a time window, for
// benchmark reporting: the mean egress-wire busy fraction across nodes and
// the peak single-node fraction. Call after the simulation has run, with
// the window's virtual duration.
func (n *Net) Utilization(elapsed float64) (meanWire, peakWire float64) {
	if elapsed <= 0 {
		return 0, 0
	}
	for i := range n.nodes {
		f := n.nodes[i].egress.BusyTime() / elapsed
		meanWire += f
		if f > peakWire {
			peakWire = f
		}
	}
	meanWire /= float64(len(n.nodes))
	return meanWire, peakWire
}
