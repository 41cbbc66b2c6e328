package bench

import (
	"strings"
	"testing"

	"commoverlap/internal/mpi"
)

// TestTopoWinnerShifts pins the topology experiment's central claim: the
// tuned (N_DUP, PPN, algorithm) winner differs between the flat and the
// hierarchical fabric. The simulator is exact arithmetic over a
// deterministic schedule, so the winning tuples are pinned exactly: on the
// flat fabric the auto-selected switch-point algorithm at full overlap
// width wins, while the oversubscribed shared uplink flips the algorithm
// axis to the ring, whose traffic crosses group seams only.
func TestTopoWinnerShifts(t *testing.T) {
	res, err := Topo(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flat, hier := res.Best["flat"], res.Best["hier"]
	if flat.key() == hier.key() {
		t.Fatalf("winner %s is fabric-independent; the topology axis bought nothing", flat.key())
	}
	if flat.key() != "ndup=8,ppn=4,alg=auto" {
		t.Errorf("flat winner = %s, want ndup=8,ppn=4,alg=auto", flat.key())
	}
	if hier.key() != "ndup=8,ppn=4,alg=ring" {
		t.Errorf("hier winner = %s, want ndup=8,ppn=4,alg=ring", hier.key())
	}
	// The physics behind the shift: the flat fabric has no interior links to
	// contend on, while the hier winner runs its shared uplinks nearly flat
	// out and lands well below the flat fabric's bandwidth.
	if flat.UplinkUtil != 0 {
		t.Errorf("flat winner uplink utilization %g, want 0", flat.UplinkUtil)
	}
	if hier.UplinkUtil < 0.9 {
		t.Errorf("hier winner uplink utilization %.2f, want >= 0.9", hier.UplinkUtil)
	}
	if hier.BW >= flat.BW/2 {
		t.Errorf("hier winner %.0f MB/s vs flat %.0f MB/s: oversubscription cost not visible",
			hier.BW/1e6, flat.BW/1e6)
	}
	// On the hierarchical fabric the ring beats the auto selection in every
	// single (ndup, ppn) cell — the uplink rewards seam-only traffic.
	auto := make(map[string]float64)
	for _, row := range res.Rows {
		if row.Fabric == "hier" && row.Alg == mpi.AlgAuto {
			auto[row.key()] = row.BW
		}
	}
	for _, row := range res.Rows {
		if row.Fabric != "hier" || row.Alg != mpi.AlgRing {
			continue
		}
		twin := strings.Replace(row.key(), "alg=ring", "alg=auto", 1)
		if bw, ok := auto[twin]; ok && row.BW <= bw {
			t.Errorf("hier %s (%.0f MB/s) does not beat %s (%.0f MB/s)",
				row.key(), row.BW/1e6, twin, bw/1e6)
		}
	}
}

// TestTopoSweepByteIdentical: the topology sweep — table text plus CSV — is
// byte-identical whether its cells run sequentially or on eight workers.
func TestTopoSweepByteIdentical(t *testing.T) {
	render := func(workers int) string {
		var sb strings.Builder
		res, err := Topo(&sb, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("topo output differs between 1 and 8 workers:\n--- sequential ---\n%s\n--- 8 workers ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "Topology sweep") || !strings.Contains(seq, "fabric,ndup,ppn,alg") {
		t.Fatalf("render produced no table:\n%s", seq)
	}
}
