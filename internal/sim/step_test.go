package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestStepDeadlockReported checks teardown with both kinds of process stuck:
// a step process parked with no wakeup booked and a goroutine process
// waiting on a gate nobody fires. Run names both in its deadlock error,
// both stay live, and the goroutine process's goroutine is released.
func TestStepDeadlockReported(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	g := new(Gate)
	e.SpawnStep(new(Proc), "parked", func(*Proc) {}) // books nothing: parked forever
	e.Spawn("gated", func(p *Proc) { p.Wait(g) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	for _, name := range []string{"parked(#0)", "gated(#1)"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("deadlock error %q does not name %s", err, name)
		}
	}
	if e.Live() != 2 {
		t.Errorf("Live() = %d, want 2", e.Live())
	}
	if after := goroutinesSettle(before); after > before {
		t.Fatalf("goroutines grew across a deadlocked Run: %d -> %d", before, after)
	}
}

func TestSpawnStepAfterRunPanics(t *testing.T) {
	e := NewEngine()
	e.SpawnStep(new(Proc), "a", func(p *Proc) { p.Exit() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SpawnStep after Run did not panic")
		}
	}()
	e.SpawnStep(new(Proc), "late", func(p *Proc) { p.Exit() })
}

// TestSpawnStepOfLiveProcPanics hands SpawnStep a step process that has
// not exited.
func TestSpawnStepOfLiveProcPanics(t *testing.T) {
	e := NewEngine()
	p := new(Proc)
	e.SpawnStep(p, "a", func(p *Proc) { p.Exit() })
	defer func() {
		if recover() == nil {
			t.Error("SpawnStep of a live step process did not panic")
		}
	}()
	e.SpawnStep(p, "b", func(p *Proc) { p.Exit() })
}

// TestStepProcessCannotBlock checks that a step process calling a blocking
// method panics instead of stalling the goroutine that dispatched it.
func TestStepProcessCannotBlock(t *testing.T) {
	e := NewEngine()
	g := new(Gate)
	e.SpawnStep(new(Proc), "s", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Wait in a step process did not panic")
			}
			p.Exit()
		}()
		p.Wait(g)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStepSpawnRearmsFinishingGoroutine covers a goroutine process that
// finishes while a step process is due next, and that step process's Spawn
// takes the finished process's goroutine off the free list. The new
// process's first event comes back to the goroutine dispatching it, which
// must run the new body itself rather than hand off to its own channel.
func TestStepSpawnRearmsFinishingGoroutine(t *testing.T) {
	e := NewEngine()
	var g, h *Proc
	g = e.Spawn("g", func(p *Proc) { p.Sleep(1) })
	e.SpawnStep(new(Proc), "s", script(
		func(p *Proc) { p.WakeAt(1) }, // due right after g finishes at t=1
		func(*Proc) { h = e.Spawn("h", func(p *Proc) { p.Sleep(1) }) },
	))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if h != g {
		t.Fatal("h did not reuse g's goroutine")
	}
	if e.Now() != 2 {
		t.Fatalf("run ended at t=%g, want 2", e.Now())
	}
}
