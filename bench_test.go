package commoverlap

// One benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the full artifact on the simulated machine at the
// paper's problem sizes and reports the headline quantity as a custom
// metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Virtual (simulated) seconds are
// reported as metrics; the wall-time column measures the simulator itself.

import (
	"io"
	"testing"

	"commoverlap/internal/bench"
	"commoverlap/internal/core"
)

func BenchmarkFig3P2PBandwidth(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig3(io.Discard, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Sizes) - 1
		b.ReportMetric(res.Bandwidth[last][0], "MB/s-ppn1-16MB")
		b.ReportMetric(res.Bandwidth[last][3], "MB/s-ppn8-16MB")
	}
}

func BenchmarkFig5CollectiveBandwidth(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig5(io.Discard, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Sizes) - 1
		b.ReportMetric(res.BW[1][bench.Blocking][last], "MB/s-blocking-reduce")
		b.ReportMetric(res.BW[1][bench.NonblockingOverlap][last], "MB/s-overlap-reduce")
		b.ReportMetric(res.BW[1][bench.MultiPPNOverlap][last], "MB/s-4ppn-reduce")
	}
}

func BenchmarkFig6Timeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig6(io.Discard, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		var blocking, overlap float64
		for _, e := range res.Reduce {
			switch e.Case {
			case "blocking 8MB":
				blocking = e.Done
			case "nonblk overlap N_DUP=4":
				if e.Done > overlap {
					overlap = e.Done
				}
			}
		}
		b.ReportMetric(blocking*1e6, "us-blocking-8MB-reduce")
		b.ReportMetric(overlap*1e6, "us-overlap-8MB-reduce")
	}
}

func BenchmarkTable1Variants(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(io.Discard, bench.Options{}, bench.Systems)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1] // 1hsg_70
		b.ReportMetric(last.TFlops[0], "TF-alg3")
		b.ReportMetric(last.TFlops[1], "TF-alg4")
		b.ReportMetric(last.TFlops[2], "TF-alg5")
		b.ReportMetric(last.Speedup, "speedup-alg5/alg4")
	}
}

func BenchmarkTable2NDupSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(io.Discard, bench.Options{}, bench.Systems)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.TFlops[0], "TF-ndup1")
		b.ReportMetric(last.TFlops[3], "TF-ndup4")
	}
}

func BenchmarkTable3PPNSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3(io.Discard, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, r := range rows {
			if r.TFlopsND4 > best {
				best = r.TFlopsND4
			}
		}
		b.ReportMetric(rows[0].TFlopsND1, "TF-baseline-ppn1")
		b.ReportMetric(best, "TF-best-combined")
		b.ReportMetric(best/rows[0].TFlopsND1, "combined-speedup")
	}
}

func BenchmarkTable4CommAnalysis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4(io.Discard, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].VolumeMB, "MB/node-ppn1")
		b.ReportMetric(rows[len(rows)-1].VolumeMB, "MB/node-ppn8")
		b.ReportMetric(rows[0].ActualTime*1e3, "ms-comm-ppn1")
		b.ReportMetric(rows[len(rows)-1].ActualTime*1e3, "ms-comm-ppn8")
	}
}

func BenchmarkTable5Cannon25D(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table5(io.Discard, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		best1, best4 := 0.0, 0.0
		for _, r := range rows {
			if r.TFlopsND1 > best1 {
				best1 = r.TFlopsND1
			}
			if r.TFlopsND4 > best4 {
				best4 = r.TFlopsND4
			}
		}
		b.ReportMetric(best1, "TF-best-ndup1")
		b.ReportMetric(best4, "TF-best-ndup4")
	}
}

// BenchmarkKernelScaling is an extra ablation: the optimized kernel's
// virtual time versus N_DUP at the paper's main size, isolating the
// nonblocking-overlap knob.
func BenchmarkKernelScaling(b *testing.B) {
	b.ReportAllocs()
	for _, nd := range []int{1, 2, 4, 8} {
		nd := nd
		b.Run(map[int]string{1: "ndup1", 2: "ndup2", 4: "ndup4", 8: "ndup8"}[nd], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kr, err := bench.Kernel(core.Optimized, 7645, 4, nd, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(kr.TFlops, "TFlops")
				b.ReportMetric(kr.Time*1e3, "virtual-ms")
			}
		})
	}
}

// BenchmarkSolverOverlap regenerates the pipelined-CG extension table.
func BenchmarkSolverOverlap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Solver(io.Discard, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Speedup, "pipelined-speedup-128ranks")
	}
}

// BenchmarkSparseKernel regenerates the block-sparse extension table.
func BenchmarkSparseKernel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Sparse(io.Discard, bench.Options{N: 2000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].BlockingTime*1e3, "ms-blocking-lowfill")
		b.ReportMetric(rows[0].PipelinedTime*1e3, "ms-pipelined-lowfill")
	}
}

// BenchmarkAblations regenerates the design-knob sensitivity table.
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Ablate(io.Discard, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Knob == "reduce algorithm" && r.Value == "binomial" {
				b.ReportMetric(r.TFlops, "TF-forced-binomial")
			}
		}
	}
}
