package tune

import (
	"fmt"

	"commoverlap/internal/core"
)

// The application layer: a persisted table drives the optimized
// SymmSquareCube kernel. Each communication phase of Algorithm 5 is a
// collective of a known shape (operation, payload, communicator span); the
// tuner's table holds the measured winner for the nearest tuned kernel, and
// KernelConfig transcribes those winners into core.Config.PhaseNDup.

// phaseShape returns the collective a phase of the optimized kernel most
// resembles at dimension n on a p-edge mesh: its operation and per-rank
// payload. The shipments to plane 0 are bandwidth-bound one-way transfers,
// so they look like a broadcast to the table.
func phaseShape(ph core.Phase, n, p int) (op string, bytes int64) {
	blk := int64((n + p - 1) / p)
	blockBytes := 8 * blk * blk
	switch ph {
	case core.PhaseReduce2, core.PhaseReduce3:
		return "reduce", blockBytes
	default:
		return "bcast", blockBytes
	}
}

// KernelConfig derives the configuration of the optimized kernel at
// dimension n on a p-edge mesh over `nodes` nodes: NDup and PhaseNDup come
// from the table. Returns an error when the table has no entry for a needed
// operation.
func (t *Table) KernelConfig(n, p, nodes int) (core.Config, error) {
	cfg := core.Config{N: n, PhaseNDup: make(map[core.Phase]int)}
	var dominant *Entry
	for _, ph := range core.Phases {
		op, bytes := phaseShape(ph, n, p)
		e := t.Nearest(op, bytes, nodes, "")
		if e == nil {
			return cfg, fmt.Errorf("tune: table has no %q entry for phase %s", op, ph)
		}
		cfg.PhaseNDup[ph] = e.Best.NDup
		if op == "reduce" && dominant == nil {
			dominant = e
		}
	}
	// The kernel's overlap comes from band-by-band handoffs between coupled
	// phases (the producer re-posts band c the moment it completes), which
	// only pipeline when both phases share a width. Snap each coupled pair
	// to its producer's width: a mismatched pair would fall back to a full
	// wait between the phases, costing more than the consumer's standalone
	// optimum is worth.
	for _, pair := range [][2]core.Phase{
		{core.PhaseBcastA, core.PhaseBcastB},
		{core.PhaseReduce2, core.PhaseBcastB2},
		{core.PhaseReduce3, core.PhaseShip},
	} {
		cfg.PhaseNDup[pair[1]] = cfg.PhaseNDup[pair[0]]
	}
	// The kernel is reduction-bound (Table IV), so the reduction winner
	// sets the base width.
	cfg.NDup = dominant.Best.NDup
	return cfg, nil
}
