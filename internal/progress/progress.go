// Package progress names the asynchronous progress engine — the
// third overlap mechanism next to the paper's duplicated communicators
// (N_DUP) and parked per-node ranks (PPN). Two modes exist:
//
//   - Ranks: a configurable subset of each node's ranks become dedicated
//     progress agents (Zhou et al., "MPI Progress For All"). Sibling ranks'
//     chunk pipelines are advanced on the agents' CPU resources, and parked
//     ranks complete eagerly instead of polling.
//   - Offload: a per-node DMA engine (the AMD design-space model) absorbs
//     chunk forwarding at its own byte rate, freeing every rank's NIC lane
//     for in-flight collectives to interleave with tile-level compute.
//
// Every layer carries the engine as a compact label ("", "rank2", "dma", or
// "dma@2.5e10"): the tuner inside Params, the persisted TUNING.json and
// cell provenance hashes. Parse decodes a label into a Spec; job.Run, which
// builds every simulated cell, wires it into the machine and the world.
package progress

import (
	"fmt"
	"strconv"
	"strings"
)

// Mode selects which progress engine, if any, a run uses.
type Mode int

const (
	// Off is the seed model: each rank progresses its own NIC lane and
	// parked ranks poll.
	Off Mode = iota
	// Ranks dedicates Spec.Ranks ranks per node as progress agents.
	Ranks
	// Offload charges chunk forwarding to a per-node DMA engine running at
	// Spec.Rate bytes/s.
	Offload
)

// Spec is a parsed progress-engine configuration.
type Spec struct {
	Mode  Mode
	Ranks int     // progress agents per node (Ranks mode)
	Rate  float64 // offload engine bytes/s (Offload mode; 0 = simnet.DefaultOffloadRate)
}

// Parse decodes a progress label: "" or "off" disables the engine, "rankN"
// (N >= 1) selects N progress agents per node, "dma" selects the offload
// engine at simnet.DefaultOffloadRate, and "dma@RATE" at RATE bytes/s.
func Parse(s string) (Spec, error) {
	switch {
	case s == "" || s == "off":
		return Spec{}, nil
	case strings.HasPrefix(s, "rank"):
		n, err := strconv.Atoi(s[len("rank"):])
		if err != nil || n < 1 {
			return Spec{}, fmt.Errorf("progress: bad rank count in %q (want rankN, N >= 1)", s)
		}
		return Spec{Mode: Ranks, Ranks: n}, nil
	case s == "dma":
		return Spec{Mode: Offload}, nil
	case strings.HasPrefix(s, "dma@"):
		r, err := strconv.ParseFloat(s[len("dma@"):], 64)
		if err != nil || r <= 0 {
			return Spec{}, fmt.Errorf("progress: bad offload rate in %q (want dma@BYTES_PER_SEC > 0)", s)
		}
		return Spec{Mode: Offload, Rate: r}, nil
	}
	return Spec{}, fmt.Errorf("progress: unknown spec %q (want \"\", off, rankN, dma, or dma@RATE)", s)
}

// MustParse is Parse for trusted literals; it panics on error.
func MustParse(s string) Spec {
	sp, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return sp
}

// LanesNeeded reports how many per-node rank lanes the mode consumes on top
// of the active ones: Ranks-mode agents must come out of the launched (and
// otherwise parked) lanes, while the offload engine is hardware and needs
// none. Callers use it to check PPN + LanesNeeded() <= launched PPN.
func (s Spec) LanesNeeded() int {
	if s.Mode == Ranks {
		return s.Ranks
	}
	return 0
}
