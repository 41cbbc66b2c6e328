package simnet

import (
	"fmt"

	"commoverlap/internal/sim"
)

// The fabric's topology model. The flat topology reproduces the original
// simnet behavior exactly: every inter-node chunk pays the NIC egress and
// ingress wires plus (optionally) the shared core switch. The hierarchical
// and torus topologies add interior links — first-class FIFO resources with
// the same busy/idle accounting as the wires — that inter-node routes cross
// between the sender's egress and the receiver's ingress. Shared interior
// links are where topology-dependent contention comes from: a two-level
// fabric funnels a whole group's outbound traffic through one uplink, and a
// torus serializes multi-hop routes on per-hop rails.

// TopoSpec selects and parameterizes the fabric topology inside a Config.
// The zero value (Kind "") is the flat fabric, preserving the calibrated
// behavior of earlier revisions byte for byte.
type TopoSpec struct {
	// Kind is "", "flat", "hier" or "torus". "" and "flat" are synonyms.
	Kind string

	// Hierarchical two-level fabric (Kind "hier"): nodes are grouped into
	// consecutive blocks of GroupSize; traffic between groups crosses the
	// source group's shared uplink and the destination group's shared
	// downlink. UplinkBandwidth 0 means "one NIC's worth" (WireBandwidth)
	// divided by UplinkOversub when that is set — the fat-tree
	// oversubscription ratio — and undivided otherwise. UplinkLatency is
	// the extra leading-edge latency of a cross-group hop.
	GroupSize       int
	UplinkBandwidth float64
	UplinkOversub   float64
	UplinkLatency   float64

	// 2-D torus with multi-rail links (Kind "torus"): nodes are laid out
	// row-major on a TorusX x TorusY grid (TorusX*TorusY == Nodes; TorusY
	// may be 1 for a ring). Each node has Rails directed links per grid
	// direction; a route walks dimension order (x then y) along shortest
	// wrap-around paths, all chunks of one (src,dst) pair riding the same
	// deterministically chosen rail. RailBandwidth 0 means WireBandwidth.
	// HopLatency is the extra leading-edge latency per hop.
	TorusX, TorusY int
	Rails          int
	RailBandwidth  float64
	HopLatency     float64
}

func (t *TopoSpec) validate(nodes int) error {
	switch t.Kind {
	case "", "flat":
		return nil
	case "hier":
		if t.GroupSize < 1 || t.GroupSize > nodes {
			return fmt.Errorf("simnet: hier GroupSize %d outside 1..%d", t.GroupSize, nodes)
		}
		if t.UplinkBandwidth < 0 || t.UplinkOversub < 0 || t.UplinkLatency < 0 {
			return fmt.Errorf("simnet: hier uplink parameters must be >= 0")
		}
		return nil
	case "torus":
		if t.TorusX < 1 || t.TorusY < 1 || t.TorusX*t.TorusY != nodes {
			return fmt.Errorf("simnet: torus %dx%d does not tile %d nodes", t.TorusX, t.TorusY, nodes)
		}
		if t.Rails < 1 {
			return fmt.Errorf("simnet: torus Rails %d, need >= 1", t.Rails)
		}
		if t.RailBandwidth < 0 || t.HopLatency < 0 {
			return fmt.Errorf("simnet: torus rail parameters must be >= 0")
		}
		return nil
	default:
		return fmt.Errorf("simnet: unknown topology kind %q", t.Kind)
	}
}

// HierTwoLevel returns the standard two-level spec for a node count: groups
// of ~sqrt(Nodes) behind a shared uplink at a 4:1 fat-tree oversubscription
// (a quarter of one NIC's rate), so a whole group's outbound traffic funnels
// through a fraction of a wire's worth of core capacity — the regime where
// the paper's CPU-vs-wire bottleneck argument flips and where tuned overlap
// winners genuinely differ from the flat fabric's.
func HierTwoLevel(nodes int) TopoSpec {
	g := 1
	for g*g < nodes {
		g++
	}
	return TopoSpec{Kind: "hier", GroupSize: g, UplinkOversub: 4, UplinkLatency: 1.5e-6}
}

// Torus2D returns a near-square 2-D torus spec with the given rail count
// (RailBandwidth 0 resolves to WireBandwidth; 0.5 us per hop).
func Torus2D(nodes, rails int) TopoSpec {
	x := 1
	for d := 2; d*d <= nodes; d++ {
		if nodes%d == 0 {
			x = d
		}
	}
	for x*x > nodes {
		x--
	}
	for nodes%x != 0 {
		x--
	}
	return TopoSpec{Kind: "torus", TorusX: x, TorusY: nodes / x, Rails: rails, HopLatency: 0.5e-6}
}

// TopoByName maps a short fabric name ("", "flat", "hier", "torus") to its
// standard spec for a node count. The tuner and benchmarks use it so a
// topology axis can be persisted as a plain string.
func TopoByName(name string, nodes int) (TopoSpec, error) {
	switch name {
	case "", "flat":
		return TopoSpec{}, nil
	case "hier":
		return HierTwoLevel(nodes), nil
	case "torus":
		return Torus2D(nodes, 2), nil
	default:
		return TopoSpec{}, fmt.Errorf("simnet: unknown topology %q", name)
	}
}

// Link is an interior fabric link: a first-class FIFO resource that
// inter-node routes may cross between the sender's egress wire and the
// receiver's ingress wire. Links carry the same busy/idle accounting as
// every sim resource, plus a payload byte counter per link.
type Link struct {
	Res       *sim.Resource
	Bandwidth float64 // bytes/s
	Class     string  // "core", "uplink", "downlink" or "rail"
	// bytes is the cumulative payload the link has carried (retransmitted
	// chunks count once per attempt, like wire bytes).
	bytes int64
}

// Topology answers routing queries for the fabric. Route returns the
// ordered interior links an inter-node chunk crosses (possibly none) and
// the route's total leading-edge latency; it must be a pure function of
// (src, dst) so transfers between a pair are deterministic. Every
// inter-node transfer asks for its route, so a topology that computes
// routes memoizes them. The per-node egress/ingress wires are not part of
// the route — the transfer pipeline always pays those.
type Topology interface {
	Links() []*Link
	Route(src, dst int) ([]*Link, float64)
}

// newLink builds a link, resolving a zero bandwidth to the NIC rate.
func newLink(name, class string, bw, nicBW float64) *Link {
	if bw <= 0 {
		bw = nicBW
	}
	return &Link{Res: sim.NewResource(name), Bandwidth: bw, Class: class}
}

// flatTopo is the original fabric: non-blocking except for the optional
// shared core switch.
type flatTopo struct {
	lat   float64
	links []*Link // empty, or the single core link
}

func (t *flatTopo) Links() []*Link { return t.links }
func (t *flatTopo) Route(src, dst int) ([]*Link, float64) {
	return t.links, t.lat
}

// hierTopo is the two-level fabric: per-group shared uplink and downlink,
// plus the optional core switch between them.
type hierTopo struct {
	group       int
	lat, xLat   float64
	core        []*Link // empty, or the single core link
	up, down    []*Link // per group
	crossRoutes map[int][]*Link
}

func (t *hierTopo) Links() []*Link {
	out := make([]*Link, 0, len(t.core)+2*len(t.up))
	out = append(out, t.core...)
	for i := range t.up {
		out = append(out, t.up[i], t.down[i])
	}
	return out
}

func (t *hierTopo) Route(src, dst int) ([]*Link, float64) {
	gs, gd := src/t.group, dst/t.group
	if gs == gd {
		return nil, t.lat
	}
	key := gs*len(t.up) + gd
	r, ok := t.crossRoutes[key]
	if !ok {
		r = append(append([]*Link{t.up[gs]}, t.core...), t.down[gd])
		t.crossRoutes[key] = r
	}
	return r, t.lat + t.xLat
}

// torusTopo is the 2-D torus: per-node directed rail links in each grid
// direction, routes walking dimension order along shortest wrap-around
// paths.
type torusTopo struct {
	x, y, rails int
	lat, hopLat float64
	// links[(node*4+dir)*rails+rail]; dir 0..3 = +x, -x, +y, -y.
	links  []*Link
	routes map[int][]*Link // memoized path per src*x*y+dst
}

func (t *torusTopo) Links() []*Link { return t.links }

// step returns the signed unit move along one dimension of extent n that
// realizes the shortest wrap-around path from a to b (positive on ties).
func torusStep(a, b, n int) int {
	if a == b {
		return 0
	}
	fwd := ((b-a)%n + n) % n
	if 2*fwd <= n {
		return 1
	}
	return -1
}

func (t *torusTopo) Route(src, dst int) ([]*Link, float64) {
	if src == dst {
		return nil, t.lat
	}
	key := src*t.x*t.y + dst
	route, ok := t.routes[key]
	if !ok {
		route = t.path(src, dst)
		t.routes[key] = route
	}
	return route, t.lat + float64(len(route))*t.hopLat
}

// path walks the links from src to dst.
func (t *torusTopo) path(src, dst int) []*Link {
	// All chunks of a (src,dst) pair ride one deterministic rail; distinct
	// pairs spread across rails.
	rail := 0
	if t.rails > 1 {
		rail = (src*131071 + dst) % t.rails
	}
	var route []*Link
	cx, cy := src%t.x, src/t.x
	dx, dy := dst%t.x, dst/t.x
	hop := func(node, dir int) {
		route = append(route, t.links[(node*4+dir)*t.rails+rail])
	}
	for cx != dx {
		s := torusStep(cx, dx, t.x)
		dir := 0
		if s < 0 {
			dir = 1
		}
		hop(cy*t.x+cx, dir)
		cx = ((cx+s)%t.x + t.x) % t.x
	}
	for cy != dy {
		s := torusStep(cy, dy, t.y)
		dir := 2
		if s < 0 {
			dir = 3
		}
		hop(cy*t.x+cx, dir)
		cy = ((cy+s)%t.y + t.y) % t.y
	}
	return route
}

// buildTopology constructs the fabric's Topology from its validated config.
func buildTopology(cfg *Config) Topology {
	var core []*Link
	if cfg.CoreBandwidth > 0 {
		core = []*Link{{Res: sim.NewResource("fabric.core"), Bandwidth: cfg.CoreBandwidth, Class: "core"}}
	}
	switch cfg.Topo.Kind {
	case "", "flat":
		return &flatTopo{lat: cfg.WireLatency, links: core}
	case "hier":
		groups := (cfg.Nodes + cfg.Topo.GroupSize - 1) / cfg.Topo.GroupSize
		t := &hierTopo{
			group:       cfg.Topo.GroupSize,
			lat:         cfg.WireLatency,
			xLat:        cfg.Topo.UplinkLatency,
			core:        core,
			crossRoutes: make(map[int][]*Link),
		}
		bw := cfg.Topo.UplinkBandwidth
		if bw == 0 && cfg.Topo.UplinkOversub > 0 {
			bw = cfg.WireBandwidth / cfg.Topo.UplinkOversub
		}
		for g := 0; g < groups; g++ {
			t.up = append(t.up, newLink(fmt.Sprintf("group%d.uplink", g), "uplink",
				bw, cfg.WireBandwidth))
			t.down = append(t.down, newLink(fmt.Sprintf("group%d.downlink", g), "downlink",
				bw, cfg.WireBandwidth))
		}
		return t
	case "torus":
		t := &torusTopo{
			x: cfg.Topo.TorusX, y: cfg.Topo.TorusY, rails: cfg.Topo.Rails,
			lat: cfg.WireLatency, hopLat: cfg.Topo.HopLatency,
			routes: make(map[int][]*Link),
		}
		dirs := []string{"+x", "-x", "+y", "-y"}
		t.links = make([]*Link, cfg.Nodes*4*t.rails)
		for node := 0; node < cfg.Nodes; node++ {
			for d, dn := range dirs {
				for r := 0; r < t.rails; r++ {
					t.links[(node*4+d)*t.rails+r] = newLink(
						fmt.Sprintf("torus.n%d.%s.r%d", node, dn, r), "rail",
						cfg.Topo.RailBandwidth, cfg.WireBandwidth)
				}
			}
		}
		return t
	}
	panic("simnet: unvalidated topology kind " + cfg.Topo.Kind)
}
