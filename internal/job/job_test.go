package job

import (
	"strings"
	"testing"

	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/simnet"
)

func spec(progress string) Spec {
	return Spec{Config: simnet.DefaultConfig(2), Progress: progress, Ranks: 4}
}

func barrier(p *mpi.Proc) { p.World().Barrier() }

// TestRunAppliesProgress checks both halves of every progress label: the
// offload engine's rate on the machine and the agent count on the world.
func TestRunAppliesProgress(t *testing.T) {
	cases := []struct {
		label    string
		rate     float64
		progress int
	}{
		{"", 0, 0},
		{"rank1", 0, 1},
		{"dma", simnet.DefaultOffloadRate, 0},
		{"dma@2e10", 2e10, 0},
	}
	for _, c := range cases {
		w, err := Run(spec(c.label), barrier)
		if err != nil {
			t.Errorf("%q: %v", c.label, err)
			continue
		}
		if got := w.Net.Cfg.OffloadRate; got != c.rate {
			t.Errorf("%q: OffloadRate = %g, want %g", c.label, got, c.rate)
		}
		if w.Progress != c.progress {
			t.Errorf("%q: World.Progress = %d, want %d", c.label, w.Progress, c.progress)
		}
	}
}

func TestRunSetupErrors(t *testing.T) {
	topo := spec("")
	topo.Topo = "mobius"
	ranks := spec("")
	ranks.Ranks = 0
	for name, s := range map[string]Spec{
		"unknown topology": topo,
		"progress rank0":   spec("rank0"),
		"zero ranks":       ranks,
	} {
		if w, err := Run(s, barrier); w != nil || err == nil {
			t.Errorf("%s: Run = (%v, %v), want a nil world and an error", name, w, err)
		}
	}
}

func TestRunChecksTeardown(t *testing.T) {
	w, err := Run(spec(""), func(p *mpi.Proc) {
		if p.Rank() == 0 {
			p.World().Irecv(1, 7, mpi.F64(make([]float64, 1))) // never sent
		}
	})
	if w == nil || err == nil || !strings.Contains(err.Error(), "never matched") {
		t.Fatalf("Run = (%v, %v), want the world and CheckClean's unmatched-receive error", w, err)
	}
}

func TestRunReportsDeadlock(t *testing.T) {
	w, err := Run(spec(""), func(p *mpi.Proc) {
		if p.Rank() != 0 {
			p.World().Barrier() // rank 0 never arrives
		}
	})
	if w == nil || err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run = (%v, %v), want the world and the engine's deadlock error", w, err)
	}
}

func TestRunSetupAndMetrics(t *testing.T) {
	s := spec("")
	s.Metrics = &metrics.Registry{}
	var saw *mpi.World
	s.Setup = func(w *mpi.World) { saw = w }
	w, err := Run(s, barrier)
	if err != nil {
		t.Fatal(err)
	}
	if saw != w {
		t.Error("Setup did not see the world Run returned")
	}
	if n := s.Metrics.Value("net.transfers", ""); n <= 0 {
		t.Errorf("metrics sink saw %g transfers, want > 0", n)
	}
}
