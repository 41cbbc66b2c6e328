package bench

import (
	"fmt"
	"io"
)

// Claim is one checkable statement from the paper's evaluation, with the
// paper's quantitative anchor and what this reproduction measured.
type Claim struct {
	ID       string
	Text     string
	Paper    string
	Measured string
	Holds    bool
}

// Report runs the full evaluation and checks every claim of the paper
// against the measurements, producing the verdict table that EXPERIMENTS.md
// records in prose. It returns the claims and the number of failures.
// Problem sizes are the paper's (N = 7645 etc.) whatever o.N says; expect
// ~60 s of wall time.
func Report(w io.Writer, o Options) ([]Claim, int, error) {
	o.N = 0
	var claims []Claim
	add := func(id, text, paper, measured string, holds bool) {
		claims = append(claims, Claim{ID: id, Text: text, Paper: paper, Measured: measured, Holds: holds})
	}

	// Figure 3.
	f3, err := Fig3(nil, o)
	if err != nil {
		return nil, 0, err
	}
	last := len(f3.Sizes) - 1
	mono := true
	for i := range f3.Sizes {
		for j := 1; j < len(f3.PPNs); j++ {
			if f3.Bandwidth[i][j] < f3.Bandwidth[i][j-1]*0.98 {
				mono = false
			}
		}
	}
	add("fig3.a", "p2p bandwidth rises with PPN at every size", "Fig. 3",
		fmt.Sprintf("monotone=%v", mono), mono)
	ppn1Short := f3.Bandwidth[last][0] < 0.85*f3.Bandwidth[last][3]
	add("fig3.b", "one process per node cannot attain the wire peak",
		"PPN=1 below peak except very large msgs",
		fmt.Sprintf("PPN=1 %.0f vs PPN=8 %.0f MB/s at 16MB", f3.Bandwidth[last][0], f3.Bandwidth[last][3]),
		ppn1Short)

	// Figure 5.
	f5, err := Fig5(nil, o)
	if err != nil {
		return nil, 0, err
	}
	l5 := len(f5.Sizes) - 1
	redB, redO, redP := f5.BW[1][Blocking][l5], f5.BW[1][NonblockingOverlap][l5], f5.BW[1][MultiPPNOverlap][l5]
	add("fig5.a", "blocking reduce bandwidth is the bottleneck (~2.4 GB/s)",
		"2.4 GB/s", fmt.Sprintf("%.1f GB/s", redB/1e3), redB/1e3 > 1.5 && redB/1e3 < 4.0)
	add("fig5.b", "both overlap techniques beat the blocking collectives",
		"Fig. 5", fmt.Sprintf("reduce %.0f -> %.0f (overlap), %.0f (4 PPN) MB/s", redB, redO, redP),
		redO >= redB && redP >= redB)

	// Table I.
	t1, err := Table1(nil, o, Systems)
	if err != nil {
		return nil, 0, err
	}
	t1ok, minSp, maxSp := true, 10.0, 0.0
	for _, r := range t1 {
		if !(r.TFlops[0] <= r.TFlops[1]*1.02 && r.TFlops[1] < r.TFlops[2]) {
			t1ok = false
		}
		if r.Speedup < minSp {
			minSp = r.Speedup
		}
		if r.Speedup > maxSp {
			maxSp = r.Speedup
		}
	}
	add("table1.a", "alg3 <= alg4 < alg5 on every system", "Table I",
		fmt.Sprintf("ordering holds=%v", t1ok), t1ok)
	add("table1.b", "optimized beats baseline by ~17-21%", "1.17-1.21x",
		fmt.Sprintf("%.2f-%.2fx", minSp, maxSp), minSp >= 1.1 && maxSp <= 1.6)

	// Table II.
	t2, err := Table2(nil, o, []System{Systems[2]})
	if err != nil {
		return nil, 0, err
	}
	tf := t2[0].TFlops
	plateau := tf[3] > tf[0]*1.1 && tf[5] < tf[3]*1.1
	add("table2", "N_DUP gain saturates around 4", "Table II",
		fmt.Sprintf("ndup1 %.1f, ndup4 %.1f, ndup6 %.1f TF", tf[0], tf[3], tf[5]), plateau)

	// Table III.
	t3, err := Table3(nil, o)
	if err != nil {
		return nil, 0, err
	}
	nd4Wins := true
	best := 0.0
	for _, r := range t3 {
		if r.TFlopsND4 < r.TFlopsND1*0.98 {
			nd4Wins = false
		}
		if r.TFlopsND4 > best {
			best = r.TFlopsND4
		}
	}
	combined := best / t3[0].TFlopsND1
	add("table3.a", "nonblocking overlap helps at every PPN", "Table III",
		fmt.Sprintf("ND4 >= ND1 everywhere: %v", nd4Wins), nd4Wins)
	add("table3.b", "combining both techniques is best (paper: +91%)", "1.91x",
		fmt.Sprintf("%.2fx over plain baseline", combined), combined > 1.4)

	// Table IV.
	t4, err := Table4(nil, o)
	if err != nil {
		return nil, 0, err
	}
	volGrows := t4[len(t4)-1].VolumeMB > t4[0].VolumeMB
	timeFalls := t4[len(t4)-1].ActualTime < t4[0].ActualTime
	add("table4", "volume grows with PPN yet communication time falls", "Table IV",
		fmt.Sprintf("vol %.0f->%.0f MB, time %.3f->%.3f s",
			t4[0].VolumeMB, t4[len(t4)-1].VolumeMB, t4[0].ActualTime, t4[len(t4)-1].ActualTime),
		volGrows && timeFalls)

	// Table V.
	t5, err := Table5(nil, o)
	if err != nil {
		return nil, 0, err
	}
	smallGains, wins := true, 0
	for _, r := range t5 {
		if r.TFlopsND4 >= r.TFlopsND1*0.99 {
			wins++
		}
		if r.TFlopsND4 > r.TFlopsND1*1.35 {
			smallGains = false
		}
	}
	add("table5", "2.5D overlap gains are consistent but small", "Table V",
		fmt.Sprintf("ND4 >= ND1 on %d/%d configs, all gains < 35%%", wins, len(t5)),
		wins >= len(t5)-1 && smallGains)

	failures := 0
	fprintf(w, "%-9s %-55s %-12s %-45s %s\n", "claim", "statement", "paper", "measured", "verdict")
	for _, c := range claims {
		verdict := "HOLDS"
		if !c.Holds {
			verdict = "FAILS"
			failures++
		}
		fprintf(w, "%-9s %-55s %-12s %-45s %s\n", c.ID, c.Text, c.Paper, c.Measured, verdict)
	}
	fprintf(w, "\n%d/%d claims reproduced\n", len(claims)-failures, len(claims))
	return claims, failures, nil
}
