package bench

import (
	"fmt"
	"io"

	"commoverlap/internal/mpi"
	"commoverlap/internal/tune"
)

// The topology experiment: the same allreduce swept over the overlap axes
// (N_DUP, active PPN) crossed with the collective-algorithm family, on the
// flat fabric and on the hierarchical two-level fabric whose groups share an
// uplink. The claim under test is the reason the tuner carries a topology
// axis at all: the winning (N_DUP, PPN, algorithm) triple is a property of
// the fabric, not of the collective — on the flat fabric the switch-point
// algorithms with wide overlap win, while the shared uplink rewards
// schedules whose traffic stays inside groups and punishes extra active
// lanes that pile onto the same uplink queue.

const (
	topoNodes           = 8
	topoLaunchPPN       = 4
	topoBytes     int64 = 4 << 20
)

var (
	topoFabrics = []string{"flat", "hier"}
	topoNDups   = []int{1, 2, 4, 8}
	topoPPNs    = []int{1, 2, 4}
	topoAlgs    = []string{mpi.AlgAuto, mpi.AlgRing, mpi.AlgBruck, mpi.AlgShift}
)

// TopoRow is one measured cell of the sweep.
type TopoRow struct {
	Fabric string // "flat" or "hier"
	NDup   int
	PPN    int
	Alg    string  // "" = auto switch-point selection
	BW     float64 // bytes/s, paper volume convention
	// UplinkUtil is the mean busy fraction of the fabric's shared uplink
	// links over the run (0 on the flat fabric, which has no interior links).
	UplinkUtil float64
}

// key is the tuple the winner-shift claim compares across fabrics.
func (r TopoRow) key() string {
	alg := r.Alg
	if alg == "" {
		alg = "auto"
	}
	return fmt.Sprintf("ndup=%d,ppn=%d,alg=%s", r.NDup, r.PPN, alg)
}

// TopoResult holds the full sweep plus the winner per fabric.
type TopoResult struct {
	Rows []TopoRow
	// Best maps fabric name to its winning row (highest bandwidth, first in
	// canonical sweep order on exact ties).
	Best map[string]TopoRow
}

// WriteCSV emits every cell as one CSV row.
func (r TopoResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "fabric,ndup,ppn,alg,bw_mbs,uplink_util,best"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		alg := row.Alg
		if alg == "" {
			alg = "auto"
		}
		best := 0
		if row == r.Best[row.Fabric] {
			best = 1
		}
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%s,%.3f,%.4f,%d\n",
			row.Fabric, row.NDup, row.PPN, alg, row.BW/1e6, row.UplinkUtil, best); err != nil {
			return err
		}
	}
	return nil
}

// Topo measures the allreduce overlap/algorithm sweep on the flat and
// hierarchical fabrics and reports the per-fabric winners.
func Topo(w io.Writer, o Options) (TopoResult, error) {
	res := TopoResult{Best: make(map[string]TopoRow)}
	perFabric := len(topoNDups) * len(topoPPNs) * len(topoAlgs)
	cells, err := parcases(o, len(topoFabrics)*perFabric, func(i int) (TopoRow, error) {
		fabric := topoFabrics[i/perFabric]
		j := i % perFabric
		ndup := topoNDups[j/(len(topoPPNs)*len(topoAlgs))]
		ppn := topoPPNs[j/len(topoAlgs)%len(topoPPNs)]
		alg := topoAlgs[j%len(topoAlgs)]
		return topoCell(o, fabric, ndup, ppn, alg)
	})
	if err != nil {
		return res, err
	}
	res.Rows = cells
	for _, row := range res.Rows {
		if best, ok := res.Best[row.Fabric]; !ok || row.BW > best.BW {
			res.Best[row.Fabric] = row
		}
	}

	fprintf(w, "Topology sweep: %d B allreduce on %d nodes (launch PPN %d), flat vs hierarchical fabric\n\n",
		topoBytes, topoNodes, topoLaunchPPN)
	for _, fabric := range topoFabrics {
		fprintf(w, "%s fabric%34s%s\n", fabric, "", "bw      uplink busy")
		for _, row := range res.Rows {
			if row.Fabric != fabric {
				continue
			}
			mark := " "
			if row == res.Best[fabric] {
				mark = "*"
			}
			fprintf(w, "  %s %-28s %7.0f MB/s   %5.1f%%\n", mark, row.key(), row.BW/1e6, 100*row.UplinkUtil)
		}
		fprintf(w, "\n")
	}
	fprintf(w, "* = the fabric's winner. The tuned (N_DUP, PPN, algorithm) optimum is a\nproperty of the fabric: %s wins flat, %s wins hierarchical.\n",
		res.Best["flat"].key(), res.Best["hier"].key())
	return res, nil
}

// topoCell measures one (fabric, ndup, ppn, alg) cell: the tuner's own
// allreduce cell (column communicators, duplicated comms, surplus ranks
// parked) plus a post-run per-link-class utilization snapshot.
func topoCell(o Options, fabric string, ndup, ppn int, alg string) (TopoRow, error) {
	row := TopoRow{Fabric: fabric, NDup: ndup, PPN: ppn, Alg: alg}
	k := tune.Kernel{Op: "allreduce", Bytes: topoBytes, Nodes: topoNodes, Topo: fabric}
	var elapsed float64
	w, err := o.run(tune.CollectiveJob(k, tune.Params{NDup: ndup, PPN: ppn, Alg: alg}, topoLaunchPPN, &elapsed))
	if err != nil {
		return row, err
	}
	vol := 2 * float64(topoNodes-1) / float64(topoNodes) * float64(topoBytes)
	row.BW = vol / elapsed
	row.UplinkUtil = w.Net.LinkUtilization(w.Eng.Now())["uplink"]
	return row, nil
}
