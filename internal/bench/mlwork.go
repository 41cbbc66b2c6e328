package bench

import (
	"fmt"
	"io"

	"commoverlap/internal/workload"
)

// The ML-workload experiment: the three training communication patterns
// from internal/workload (bucketed data-parallel gradient allreduce,
// ZeRO-style reduce-scatter + all-gather sharding, pipeline-parallel
// microbatching) on the accelerator preset, each run blocking and
// overlapped at increasing N_DUP. The claim under test is the paper's
// overlap thesis transplanted to the ML patterns: the overlapped schedule
// hides collective time under backward/optimizer/stage compute and under
// other collectives, so it must beat the compute-then-communicate baseline
// on every pattern — and the checksums must agree, because overlap is a
// schedule change, not a semantics change.

const (
	mlNodes     = 8
	mlLaunchPPN = 2
)

var (
	mlPatterns = []workload.Pattern{workload.DataParallel, workload.ZeRO, workload.Pipeline}
	mlNDups    = []int{1, 2, 4}
)

// mlTopoFor gives the ZeRO pattern the hierarchical fabric (the sharded
// step is the pattern whose all-gather hammers shared uplinks); the other
// patterns run flat.
func mlTopoFor(pat workload.Pattern) string {
	if pat == workload.ZeRO {
		return "hier"
	}
	return ""
}

// MLWorkRow is one measured cell.
type MLWorkRow struct {
	Pattern  string
	Variant  string // "blocking" or "overlap"
	NDup     int
	Elapsed  float64 // seconds, slowest active rank's step time
	Goodput  float64 // bytes/s, pattern volume convention
	Checksum uint64
}

func (r MLWorkRow) key() string {
	if r.Variant == "blocking" {
		return "blocking"
	}
	return fmt.Sprintf("overlap ndup=%d", r.NDup)
}

// MLWorkResult holds the sweep plus per-pattern winners.
type MLWorkResult struct {
	Rows []MLWorkRow
	// Best maps pattern name to its best overlapped row; Blocking maps it
	// to the baseline row.
	Best     map[string]MLWorkRow
	Blocking map[string]MLWorkRow
}

// WriteCSV emits every cell as one CSV row.
func (r MLWorkResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "pattern,variant,ndup,elapsed_ms,goodput_mbs,checksum,best"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		best := 0
		if row == r.Best[row.Pattern] {
			best = 1
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.4f,%.3f,%016x,%d\n",
			row.Pattern, row.Variant, row.NDup, row.Elapsed*1e3, row.Goodput/1e6, row.Checksum, best); err != nil {
			return err
		}
	}
	return nil
}

// mlSpec builds one cell's spec. Quick mode shrinks the payload for CI
// smoke runs; the schedule shape (units, variants) is unchanged.
func mlSpec(pat workload.Pattern, overlap bool, ndup int, quick bool) workload.Spec {
	elems := 1 << 17 // 1 MiB units
	units := 6
	if quick {
		elems = 1 << 14
		units = 3
	}
	return workload.Spec{
		Pattern:   pat,
		Nodes:     mlNodes,
		LaunchPPN: mlLaunchPPN,
		NDup:      ndup,
		Units:     units,
		Elems:     elems,
		Overlap:   overlap,
		Topo:      mlTopoFor(pat),
	}
}

// MLWork measures every pattern blocking and overlapped and reports the
// per-pattern winners. Cells fan through the replica runner; the result is
// byte-identical at any worker count.
func MLWork(w io.Writer, o Options) (MLWorkResult, error) {
	res := MLWorkResult{Best: make(map[string]MLWorkRow), Blocking: make(map[string]MLWorkRow)}
	perPattern := 1 + len(mlNDups) // blocking + overlapped sweep
	cells, err := parcases(o, len(mlPatterns)*perPattern, func(i int) (MLWorkRow, error) {
		pat := mlPatterns[i/perPattern]
		j := i % perPattern
		overlap, ndup := j > 0, 1
		if overlap {
			ndup = mlNDups[j-1]
		}
		variant := "blocking"
		if overlap {
			variant = "overlap"
		}
		row := MLWorkRow{Pattern: string(pat), Variant: variant, NDup: ndup}
		r, err := workload.Run(mlSpec(pat, overlap, ndup, o.Quick))
		if err != nil {
			return row, err
		}
		row.Elapsed = r.Elapsed
		row.Goodput = r.Goodput()
		row.Checksum = r.Checksum
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = cells
	for _, row := range res.Rows {
		if row.Variant == "blocking" {
			res.Blocking[row.Pattern] = row
			continue
		}
		if best, ok := res.Best[row.Pattern]; !ok || row.Goodput > best.Goodput {
			res.Best[row.Pattern] = row
		}
	}

	fprintf(w, "ML-workload patterns on the accelerator preset: %d nodes, %d ranks/node\n\n",
		mlNodes, mlLaunchPPN)
	for _, pat := range mlPatterns {
		name := string(pat)
		fprintf(w, "%-9s (%s fabric)%22s\n", name, fabricLabel(mlTopoFor(pat)), "goodput    step time")
		for _, row := range res.Rows {
			if row.Pattern != name {
				continue
			}
			mark := " "
			if row == res.Best[name] {
				mark = "*"
			}
			fprintf(w, "  %s %-18s %9.0f MB/s  %8.3f ms\n", mark, row.key(), row.Goodput/1e6, row.Elapsed*1e3)
		}
		b, o := res.Blocking[name], res.Best[name]
		fprintf(w, "    overlap/blocking speedup: %.2fx\n\n", b.Elapsed/o.Elapsed)
	}
	fprintf(w, "* = the pattern's winner. Checksums agree across every variant of a\npattern: overlap changes the schedule, never the result.\n")
	return res, nil
}

func fabricLabel(topo string) string {
	if topo == "" {
		return "flat"
	}
	return topo
}
