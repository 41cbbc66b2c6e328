package tune

import (
	"fmt"

	"commoverlap/internal/core"
)

// The application layer: a persisted table drives the optimized
// SymmSquareCube kernel. Every communication phase of Algorithm 5 moves one
// matrix block per rank; the tuner's table holds the measured winner for the
// nearest tuned kernel of that size, and KernelConfig transcribes the
// winners into core.Config's two pipeline widths.

// KernelConfig derives the configuration of the optimized kernel at
// dimension n on a p-edge mesh over `nodes` nodes. The nearest bcast entry
// sets NDupAB, the width of the A and B broadcasts. The kernel is
// reduction-bound (Table IV), so the nearest reduce entry sets NDup, the
// width of every phase from the first reduction on, the broadcast of D²
// and the shipments included: each of those is coupled band by band to a
// reduction, and only pipelines at the reduction's width. Returns an error
// when the table has no entry for either operation.
func (t *Table) KernelConfig(n, p, nodes int) (core.Config, error) {
	blk := int64((n + p - 1) / p)
	bytes := 8 * blk * blk
	cfg := core.Config{N: n}
	for _, w := range []struct {
		op    string
		width *int
	}{{"bcast", &cfg.NDupAB}, {"reduce", &cfg.NDup}} {
		e := t.Nearest(w.op, bytes, nodes, "")
		if e == nil {
			return cfg, fmt.Errorf("tune: table has no %q entry for the kernel", w.op)
		}
		*w.width = e.Best.NDup
	}
	return cfg, nil
}
