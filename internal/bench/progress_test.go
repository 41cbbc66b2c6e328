package bench

import (
	"bytes"
	"strings"
	"testing"
)

// The progress-engine head-to-head claims, pinned on the quick sweep (the
// simulator is exact, so these relations are deterministic, not
// statistical):
//
//   - On both Fig. 5/6 reduce cases the tuned progress-engine configuration
//     beats tuned PPN-only at equal total rank count — the acceptance claim.
//   - On the large-payload Fig. 5 case the engine also beats the paper's
//     combined ndup+ppn tuning: the DMA engine lifts the per-flow NIC-lane
//     cap the software mechanisms cannot touch.
//   - On the dp/zero workloads the engine is the overall winner; adding
//     active ranks (PPN) dilutes per-rank compute there, so only the
//     engine's offload path improves goodput.
func TestProgressEngineWins(t *testing.T) {
	res, err := ProgressBench(nil, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range []string{"fig5-reduce-16MiB-4n", "fig6-reduce-8MiB-4n"} {
		byClass := res.Best[cs]
		pe, ppn := byClass["progress"], byClass["ppn"]
		if pe.BW <= ppn.BW {
			t.Errorf("%s: tuned progress %.0f MB/s (%s) does not beat tuned ppn-only %.0f MB/s (%s)",
				cs, pe.BW/1e6, pe.label(), ppn.BW/1e6, ppn.label())
		}
		if pe.Progress == "" {
			t.Errorf("%s: progress-class winner %s has the engine off", cs, pe.label())
		}
	}
	fig5 := res.Best["fig5-reduce-16MiB-4n"]
	if pe, both := fig5["progress"], fig5["ndup+ppn"]; pe.BW <= both.BW {
		t.Errorf("fig5: progress %.0f MB/s does not beat combined ndup+ppn %.0f MB/s",
			pe.BW/1e6, both.BW/1e6)
	}
	for _, cs := range []string{"dp-8MiB-8n", "zero-8MiB-8n@hier"} {
		byClass := res.Best[cs]
		pe := byClass["progress"]
		for _, other := range []string{"blocking", "ndup", "ppn", "ndup+ppn"} {
			if pe.BW <= byClass[other].BW {
				t.Errorf("%s: progress %.0f MB/s not above %s %.0f MB/s",
					cs, pe.BW/1e6, other, byClass[other].BW/1e6)
			}
		}
	}
	// Every class produced a winner for every case, and the blocking
	// baseline is the single-knob floor.
	for _, byClass := range res.Best {
		for cl, row := range byClass {
			if row.BW <= 0 {
				t.Errorf("class %s winner has bandwidth %g", cl, row.BW)
			}
		}
	}
}

// TestProgressDeterminism: the whole experiment — rendered table plus CSV —
// is byte-identical sequentially and at 8 workers.
func TestProgressDeterminism(t *testing.T) {
	render := func(workers int) string {
		var sb strings.Builder
		res, err := ProgressBench(&sb, Options{Workers: workers, Quick: true})
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
		t.Errorf("progress experiment differs between 1 and 8 workers:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "progress/ppn") {
		t.Error("rendered table is missing the progress/ppn headline")
	}
	var csv bytes.Buffer
	res, err := ProgressBench(nil, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "case,class,ndup,ppn,progress,bw_mbs,best\n") {
		t.Errorf("unexpected CSV header: %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
}
