// Package job builds and runs one simulated cell: the engine, the fabric
// and the MPI world of one isolated experiment point, a tuner cell, a
// workload run or a checker schedule. Spec names everything a cell varies —
// the machine, the fabric topology, the progress engine, the ranks and
// their placement, the metrics sink, and a hook on the built world — and
// Run is the one place that wires them, launches the ranks and checks that
// the world tore down clean.
package job

import (
	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/progress"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

// Spec describes one cell.
type Spec struct {
	// Config is the machine; Config.Nodes is its node count. Run sets its
	// Topo from the Topo name, and its OffloadRate in the progress
	// engine's offload mode.
	Config simnet.Config
	// Topo names the fabric topology (simnet.TopoByName); empty is flat.
	Topo string
	// Progress is the progress-engine label (progress.Parse): "dma" or
	// "dma@RATE" enables every node's DMA offload engine, "rankN" makes N
	// ranks per node progress agents (mpi.World.Progress).
	Progress string
	// Ranks is the world size; Placement maps rank to node (nil = round
	// robin).
	Ranks     int
	Placement []int
	// Metrics, when non-nil, is the world's virtual-time metrics sink.
	Metrics *metrics.Registry
	// Setup, when non-nil, adjusts the built world before launch:
	// algorithm and switch-point overrides, a fault injector, checker
	// hooks.
	Setup func(*mpi.World)
}

// Run builds the cell s describes, runs body on every rank until the
// engine has no events left, and checks the teardown with
// mpi.World.CheckClean. A setup error returns a nil world. A deadlock
// returns the world with the engine's error, unchecked; otherwise the
// error is the teardown check's.
func Run(s Spec, body func(*mpi.Proc)) (*mpi.World, error) {
	sp, err := progress.Parse(s.Progress)
	if err != nil {
		return nil, err
	}
	cfg := s.Config
	if cfg.Topo, err = simnet.TopoByName(s.Topo, cfg.Nodes); err != nil {
		return nil, err
	}
	if sp.Mode == progress.Offload {
		cfg.OffloadRate = sp.Rate
		if cfg.OffloadRate == 0 {
			cfg.OffloadRate = simnet.DefaultOffloadRate
		}
	}
	eng := sim.NewEngine()
	net, err := simnet.New(eng, cfg)
	if err != nil {
		return nil, err
	}
	w, err := mpi.NewWorld(net, s.Ranks, s.Placement)
	if err != nil {
		return nil, err
	}
	w.Progress = sp.LanesNeeded()
	if s.Metrics != nil {
		w.SetMetrics(s.Metrics)
	}
	if s.Setup != nil {
		s.Setup(w)
	}
	w.Launch(body)
	if err := eng.Run(); err != nil {
		return w, err
	}
	return w, w.CheckClean()
}
