package bench

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// progressRun is one quick progress sweep: the result and its rendered
// table plus CSV.
type progressRun struct {
	res  ProgressResult
	text string
}

func renderProgress(workers int) (progressRun, error) {
	var sb strings.Builder
	res, err := ProgressBench(&sb, Options{Workers: workers, Quick: true})
	if err == nil {
		err = res.WriteCSV(&sb)
	}
	return progressRun{res, sb.String()}, err
}

// quickProgress is the quick sweep at 8 workers, shared by the tests that
// read it (the sweep is deterministic, so every caller would compute the
// identical result).
var quickProgress = sync.OnceValues(func() (progressRun, error) { return renderProgress(8) })

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
	run, err := quickProgress()
	if err != nil {
		t.Fatal(err)
	}
	res := run.res
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
	par, err := quickProgress()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := renderProgress(1)
	if err != nil {
		t.Fatal(err)
	}
	if seq.text != par.text {
		t.Errorf("progress experiment differs between 1 and 8 workers:\n--- seq ---\n%s\n--- par ---\n%s", seq.text, par.text)
	}
	if !strings.Contains(seq.text, "progress/ppn") {
		t.Error("rendered table is missing the progress/ppn headline")
	}
	var csv bytes.Buffer
	if err := par.res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "case,class,ndup,ppn,progress,bw_mbs,best\n") {
		t.Errorf("unexpected CSV header: %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
}
