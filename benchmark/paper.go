package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"commoverlap/internal/bench"
	"commoverlap/internal/core"
	"commoverlap/internal/mesh"
	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

// paperGolden holds every paper cell's outcome as the seed commit computed
// it; regenerate with `go test -run TestUpdateGolden -update`.
//
//go:embed testdata/paper_kernels.golden
var paperGolden string

// paperCell is one SymmSquareCube cell of the paper's Tables I-III.
type paperCell struct {
	table        string
	sys          bench.System
	v            core.Variant
	p, ndup, ppn int // mesh edge, pipeline width, processes per node
}

func (c paperCell) String() string {
	return fmt.Sprintf("%s/%s/%s/p%d/nd%d/ppn%d", c.table, c.sys.Name, c.v, c.p, c.ndup, c.ppn)
}

// paperCells lists the 37 cells of Tables I-III at the paper's sizes; the
// smoke size keeps the two cheapest.
func paperCells(smoke bool) []paperCell {
	var cells []paperCell
	for _, sys := range bench.Systems {
		for _, v := range []core.Variant{core.Original, core.Baseline, core.Optimized} {
			ndup := 1
			if v == core.Optimized {
				ndup = 4
			}
			cells = append(cells, paperCell{"t1", sys, v, 4, ndup, 1})
		}
	}
	for _, sys := range bench.Systems {
		for _, nd := range bench.Table2NDups {
			cells = append(cells, paperCell{"t2", sys, core.Optimized, 4, nd, 1})
		}
	}
	for _, cfg := range bench.Table3Configs {
		for _, nd := range []int{1, 4} {
			cells = append(cells, paperCell{"t3", bench.Systems[2], core.Optimized, cfg.Mesh, nd, cfg.PPN})
		}
	}
	if smoke {
		return cells[:2]
	}
	return cells
}

// kernelOutcome is what the output check compares: virtual times, wire
// bytes and wire utilisation, all deterministic.
type kernelOutcome struct {
	time, gemm float64 // max over ranks, virtual seconds
	wireBytes  int64
	wireUtil   float64 // mean busy fraction of the node egress wires
}

func (k kernelOutcome) String() string {
	return fmt.Sprintf("time=%.17g gemm=%.17g wire_bytes=%d wire_util=%.17g", k.time, k.gemm, k.wireBytes, k.wireUtil)
}

// registryCounters maps the simulator's metrics-registry counters, by name
// or by name/label, to the per-layer metrics they add to.
var registryCounters = map[string]string{
	"net.chunks":     "simnet.chunks",
	"net.transfers":  "simnet.transfers",
	"net.wire.bytes": "simnet.wire_bytes",
	"mpi.coll":       "mpi.colls",
	"mpi.msgs/eager": "mpi.msgs_eager",
	"mpi.msgs/rndv":  "mpi.msgs_rndv",
}

// runKernel builds one cell's job from the layers' constructors, the way
// bench.Kernel does, and runs it. With count set it also installs the event
// hook and a metrics registry and returns the cell's exact work counts,
// keyed by per-layer metric name. The world setup (simnet.New through
// Launch) and Engine.Run are timed separately.
func runKernel(c paperCell, count bool) (out kernelOutcome, n map[string]float64, setup, run time.Duration, err error) {
	t0 := time.Now()
	dims := mesh.Cubic(c.p)
	ranks := dims.Size()
	eng := sim.NewEngine()
	net, err := simnet.New(eng, simnet.DefaultConfig(mesh.NodesNeeded(ranks, c.ppn)))
	if err != nil {
		return out, n, 0, 0, err
	}
	w, err := mpi.NewWorld(net, ranks, mesh.NaturalPlacement(ranks, c.ppn))
	if err != nil {
		return out, n, 0, 0, err
	}
	var reg *metrics.Registry
	var events float64
	if count {
		reg = new(metrics.Registry)
		w.SetMetrics(reg)
		eng.SetEventHook(func(float64, *sim.Proc) { events++ })
	}
	// Rank bodies run one at a time under the engine, so the shared
	// variables below need no locking.
	var bodyErr error
	w.Launch(func(pr *mpi.Proc) {
		env, err := core.NewEnv(pr, dims, core.Config{N: c.sys.N, NDup: c.ndup, PPN: c.ppn})
		if err != nil {
			if bodyErr == nil {
				bodyErr = err
			}
			return
		}
		env.M.World.Barrier()
		res := env.SymmSquareCube(c.v, nil)
		out.time = max(out.time, res.Time)
		out.gemm = max(out.gemm, res.GemmTime)
	})
	t1 := time.Now()
	err = eng.Run()
	setup, run = t1.Sub(t0), time.Since(t1)
	if bodyErr != nil {
		err = bodyErr
	}
	if err != nil {
		return out, n, setup, run, err
	}
	out.wireBytes = net.TotalWireBytes()
	out.wireUtil, _ = net.Utilization(eng.Now())
	if count {
		n = map[string]float64{"sim.events": events}
		for _, s := range w.ResourceSnapshots() {
			n["sim.reservations"] += float64(s.Reservations)
		}
		for _, s := range reg.Snapshot() {
			name, ok := registryCounters[s.Name]
			if !ok {
				name, ok = registryCounters[s.Name+"/"+s.Label]
			}
			if ok {
				n[name] += s.Value
			}
		}
	}
	return out, n, setup, run, nil
}

// parseGolden reads the golden file: one "<cell> <outcome>" line per cell.
func parseGolden(text string) map[string]string {
	golden := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if name, rest, ok := strings.Cut(line, " "); ok {
			golden[name] = rest
		}
	}
	return golden
}

// setupPaper loads the golden outcomes and runs one warm-up cell.
func setupPaper(o options) (measureFunc, error) {
	golden := parseGolden(paperGolden)
	cells := paperCells(o.smoke())
	for _, c := range cells {
		if _, ok := golden[c.String()]; !ok {
			return nil, fmt.Errorf("golden file has no cell %s", c)
		}
	}
	warm := cells[0]
	out, _, _, _, err := runKernel(warm, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up cell %s: %w", warm, err)
	}
	if got := out.String(); got != golden[warm.String()] {
		return nil, fmt.Errorf("warm-up cell %s: got %s, golden %s", warm, got, golden[warm.String()])
	}
	return func(budget time.Duration, tr *tracer) (*sample, error) {
		return measurePaper(o.seed, cells, golden, budget, tr)
	}, nil
}

// measurePaper runs the cells one at a time (one worker) as seed-shuffled
// passes: the first pass runs every cell, later passes run the cells whose
// first-pass time still fits in the budget. Throughput and latency come from
// each cell's median time, so a partial last pass does not bias them toward
// cheap cells.
func measurePaper(seed int64, cells []paperCell, golden map[string]string, budget time.Duration, tr *tracer) (*sample, error) {
	rng := rand.New(rand.NewSource(seed))
	times := make([][]float64, len(cells)) // seconds per run of each cell
	traced := tr != nil
	s := &sample{layer: map[string]float64{}}
	var setups []float64
	var runTotal time.Duration
	var events float64
	start := time.Now()
	root := tr.id()
	for p := 0; ; p++ {
		ran := 0
		for _, i := range rng.Perm(len(cells)) {
			c := cells[i]
			if p > 0 && time.Since(start)+time.Duration(times[i][0]*float64(time.Second)) > budget {
				continue
			}
			id := tr.id()
			group := fmt.Sprintf("%s#%d", c, p)
			t0 := time.Now()
			out, n, setup, run, err := runKernel(c, traced)
			t1 := time.Now()
			tr.span(tr.id(), id, "world-setup", group, 0, t0, t0.Add(setup))
			tr.span(tr.id(), id, "engine-run", group, 0, t1.Add(-run), t1)
			tr.span(id, root, "cell", group, 0, t0, t1)
			ran++
			s.attempted++
			if err != nil {
				return nil, fmt.Errorf("cell %s: %w", c, err)
			}
			if got := out.String(); got != golden[c.String()] {
				s.failed++
				logMismatch("cell "+c.String(), got, golden[c.String()])
			}
			if len(times[i]) == 0 { // exact counts are per pass: each cell once
				for k, v := range n {
					s.layer[k] += v
				}
			}
			times[i] = append(times[i], t1.Sub(t0).Seconds())
			setups = append(setups, ms(setup))
			runTotal += run
			events += n["sim.events"]
		}
		if time.Since(start) >= budget || (p > 0 && ran == 0) {
			break
		}
	}
	wall := time.Since(start)
	tr.span(root, 0, "paper-kernels", "", 0, start, start.Add(wall))

	var passSeconds float64
	for _, ts := range times {
		m := median(ts)
		passSeconds += m
		s.lat = append(s.lat, 1e3*m)
	}
	s.rate = float64(len(cells)) / passSeconds
	s.layer["sim.run_share"] = runTotal.Seconds() / wall.Seconds()
	s.layer["mpi.world_setup_ms_p50"] = median(setups)
	if traced {
		s.layer["sim.ns_per_event"] = float64(runTotal) / events
	}
	return s, nil
}
