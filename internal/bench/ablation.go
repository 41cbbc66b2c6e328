package bench

import (
	"io"
	"strconv"

	"commoverlap/internal/core"
	"commoverlap/internal/mesh"
	"commoverlap/internal/mpi"
	"commoverlap/internal/simnet"
)

// Ablations for the design choices DESIGN.md calls out: the collective
// algorithm switch points, the protocol chunk size, and the fabric core
// capacity. Each sweeps one knob around its default while everything else
// stays at the calibrated configuration, reporting optimized-kernel
// performance at the paper's main size.

// AblationRow is one knob setting's result.
type AblationRow struct {
	Knob   string
	Value  string
	TFlops float64
}

// ablationKernel runs the optimized kernel on a p-edge cubic mesh under a
// custom machine config, with natural or round-robin rank placement and a
// setup hook that adjusts the freshly built world (per-job collective
// switch points and similar) before launch. It returns the kernel's TFlops.
func ablationKernel(o Options, cfg simnet.Config, n, p, ndup, ppn int, roundRobin bool, setup func(*mpi.World)) (float64, error) {
	dims := mesh.Cubic(p)
	s := naturalSpec(dims.Size(), ppn)
	cfg.Nodes = s.Config.Nodes
	s.Config, s.Setup = cfg, setup
	if roundRobin {
		s.Placement = mesh.RoundRobinPlacement(dims.Size(), cfg.Nodes)
	}
	kr, err := o.kernelCell(s, n, kernel3D(dims, core.Optimized, core.Config{N: n, NDup: ndup, PPN: ppn}))
	return kr.TFlops, err
}

// Ablate sweeps the three knobs and prints the sensitivity table.
func Ablate(w io.Writer, o Options) ([]AblationRow, error) {
	n := o.n()
	fprintf(w, "Ablations: optimized kernel (4^3 mesh, N_DUP=4, N=%d) vs design knobs\n", n)
	fprintf(w, "%-22s %-12s %8s\n", "knob", "value", "TFlops")
	var rows []AblationRow
	add := func(knob, value string, tf float64) {
		rows = append(rows, AblationRow{Knob: knob, Value: value, TFlops: tf})
		fprintf(w, "%-22s %-12s %8.2f\n", knob, value, tf)
	}

	// 1. Protocol chunk size: too coarse costs pipelining, too fine costs
	//    per-chunk overheads.
	chunks := []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	cells, err := parcases(o, len(chunks), func(i int) (float64, error) {
		cfg := simnet.DefaultConfig(1)
		cfg.ChunkBytes = chunks[i]
		return ablationKernel(o, cfg, n, 4, 4, 1, false, nil)
	})
	if err != nil {
		return rows, err
	}
	for i, chunk := range chunks {
		add("chunk bytes", byteLabel(chunk), cells[i])
	}

	// 2. Reduce algorithm switch point: forcing binomial trees for the
	//    kernel's ~7 MB bands shows why Rabenseifner matters. The switch
	//    point is per-World configuration, so the two jobs fan through the
	//    replica pool like every other group.
	limits := []int64{64 << 10, 1 << 30}
	cells, err = parcases(o, len(limits), func(i int) (float64, error) {
		lim := limits[i]
		return ablationKernel(o, simnet.DefaultConfig(1), n, 4, 4, 1, false, func(w *mpi.World) {
			w.ReduceLongMsg = lim
		})
	})
	if err != nil {
		return rows, err
	}
	for i, lim := range limits {
		label := "rabenseifner"
		if lim > 1<<29 {
			label = "binomial"
		}
		add("reduce algorithm", label, cells[i])
	}

	// 3. Rank placement: the paper's "natural" assignment keeps each mesh
	//    column (the reduce fibers) mostly on one node; round-robin spreads
	//    it across nodes.
	cells, err = parcases(o, 2, func(i int) (float64, error) {
		return ablationKernel(o, simnet.DefaultConfig(1), n, 6, 4, 4, i == 1, nil)
	})
	if err != nil {
		return rows, err
	}
	add("placement (PPN=4)", "natural", cells[0])
	add("placement (PPN=4)", "round-robin", cells[1])

	// 4. Reduction arithmetic rate: the kernel is reduce-bound, so the
	//    single-core combine rate is a first-order term.
	scales := []float64{0.5, 1, 2}
	cells, err = parcases(o, len(scales), func(i int) (float64, error) {
		cfg := simnet.DefaultConfig(1)
		cfg.ReduceRate *= scales[i]
		return ablationKernel(o, cfg, n, 4, 4, 1, false, nil)
	})
	if err != nil {
		return rows, err
	}
	for i, scale := range scales {
		add("reduce arith rate", map[float64]string{0.5: "0.5x", 1: "1x", 2: "2x"}[scale], cells[i])
	}

	// 5. Fabric core capacity: a non-blocking core vs 2:1 and 4:1
	//    oversubscription (total node bandwidth / core bandwidth).
	factors := []float64{0, 2, 4}
	cells, err = parcases(o, len(factors), func(i int) (float64, error) {
		cfg := simnet.DefaultConfig(1)
		if factors[i] > 0 {
			cfg.CoreBandwidth = 64 * cfg.WireBandwidth / factors[i]
		}
		return ablationKernel(o, cfg, n, 4, 4, 1, false, nil)
	})
	if err != nil {
		return rows, err
	}
	for i, factor := range factors {
		label := "non-blocking"
		if factor == 2 {
			label = "2:1 oversub"
		} else if factor == 4 {
			label = "4:1 oversub"
		}
		add("fabric core", label, cells[i])
	}
	return rows, nil
}

func byteLabel(b int64) string {
	switch {
	case b >= 1<<20:
		return strconv.Itoa(int(b>>20)) + "MiB"
	case b >= 1<<10:
		return strconv.Itoa(int(b>>10)) + "KiB"
	default:
		return strconv.Itoa(int(b)) + "B"
	}
}
