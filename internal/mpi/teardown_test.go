package mpi

import (
	"strings"
	"testing"

	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

// buildWorld constructs an engine + fabric + world for teardown tests that
// need to inspect the world after Run (runJob hides it).
func buildWorld(t *testing.T, size, nodes int) (*sim.Engine, *World) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := simnet.New(eng, simnet.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(net, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

func TestCheckCleanAfterCleanRun(t *testing.T) {
	eng, w := buildWorld(t, 4, 2)
	w.Launch(func(p *Proc) {
		buf := []float64{float64(p.Rank())}
		p.World().Allreduce(F64(buf), OpSum)
		p.World().Barrier()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatalf("clean run reported leaks: %v", err)
	}
	if n := len(w.open); n != 0 {
		t.Fatalf("%d open requests, want 0", n)
	}
}

// TestLeakedIbcastDetected deliberately leaks an Ibcast: the non-root rank
// posts it (its collective child blocks waiting for the root's data) but the
// root never does. The engine reports the stuck child as a deadlock AND
// CheckClean enumerates the pending ibcast request — teardown fails loudly
// on both channels.
func TestLeakedIbcastDetected(t *testing.T) {
	eng, w := buildWorld(t, 2, 2)
	w.Launch(func(p *Proc) {
		if p.Rank() == 1 {
			p.World().Ibcast(0, F64(make([]float64, 4))) // root never posts
		}
	})
	if err := eng.Run(); err == nil {
		t.Fatal("engine did not report the stuck collective child")
	}
	err := w.CheckClean()
	if err == nil {
		t.Fatal("CheckClean() = nil, want leaked-request report")
	}
	for _, want := range []string{"pending request", "ibcast", "live simulation process"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("CheckClean() = %q, missing %q", err, want)
		}
	}
}

// A posted receive that never matches is a silent leak: no process stays
// alive, the engine finishes without error, and only the request accounting
// notices.
func TestLeakedIrecvDetected(t *testing.T) {
	eng, w := buildWorld(t, 2, 2)
	w.Launch(func(p *Proc) {
		if p.Rank() == 0 {
			p.World().Irecv(1, 42, F64(make([]float64, 1))) // never sent
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("engine reported an error for a passive leak: %v", err)
	}
	err := w.CheckClean()
	if err == nil {
		t.Fatal("CheckClean() = nil, want pending irecv + posted receive report")
	}
	for _, want := range []string{"irecv", "posted receive"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("CheckClean() = %q, missing %q", err, want)
		}
	}
}

func TestUndeliveredMessageDetected(t *testing.T) {
	eng, w := buildWorld(t, 2, 2)
	w.Launch(func(p *Proc) {
		if p.Rank() == 0 {
			p.World().Send(1, 7, F64([]float64{1})) // eager: completes at injection
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("engine reported an error: %v", err)
	}
	err := w.CheckClean()
	if err == nil || !strings.Contains(err.Error(), "unexpected message") {
		t.Fatalf("CheckClean() = %v, want unexpected-message report", err)
	}
}

// TestPollWaitRunawayPanics covers the "parked process never woken" gap: a
// rank parked on an Ibarrier its peer never enters used to spin forever in
// virtual time; now it trips the MaxPollTime guard with a diagnosis.
func TestPollWaitRunawayPanics(t *testing.T) {
	eng, w := buildWorld(t, 2, 2)
	w.MaxPollTime = 0.5 // seconds of virtual time; ~50 polls at the default interval
	panicked := make(chan string, 1)
	w.Launch(func(p *Proc) {
		if p.Rank() == 0 {
			defer func() {
				if r := recover(); r != nil {
					panicked <- r.(string)
				}
			}()
			RunActive(p, p.World(), false, DefaultPollInterval, nil) // rank 1 never joins
		}
	})
	eng.Run() // rank 0's ibarrier child stays blocked; the run itself is dirty by design
	select {
	case msg := <-panicked:
		if !strings.Contains(msg, "never woken") {
			t.Fatalf("PollWait panicked with %q, want never-woken diagnosis", msg)
		}
	default:
		t.Fatal("runaway PollWait did not panic")
	}
	if w.parks != 1 || w.wakes != 0 {
		t.Fatalf("(parks, wakes) = (%d, %d), want (1, 0)", w.parks, w.wakes)
	}
	if err := w.CheckClean(); err == nil || !strings.Contains(err.Error(), "never woken") {
		t.Fatalf("CheckClean() = %v, want parked-never-woken report", err)
	}
}

func TestParkStatsBalancedAfterRunActive(t *testing.T) {
	eng, w := buildWorld(t, 4, 2)
	w.Launch(func(p *Proc) {
		active := p.Rank()%2 == 0
		sub := p.World().Split(map[bool]int{true: 0, false: -1}[active], p.Rank())
		RunActive(p, p.World(), active, 0, func() {
			buf := []float64{1}
			sub.Allreduce(F64(buf), OpSum)
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if w.parks != 2 || w.wakes != 2 {
		t.Fatalf("(parks, wakes) = (%d, %d), want (2, 2)", w.parks, w.wakes)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}
