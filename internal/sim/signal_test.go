package sim

import "testing"

func TestSignalBasicHandoff(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	var log []float64
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.WaitSignal(s)
			log = append(log, p.Now())
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
			s.Notify()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 || log[0] != 1 || log[1] != 2 || log[2] != 3 {
		t.Errorf("handoffs at %v", log)
	}
}

func TestSignalNotifyWithoutWaiterIsNoop(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	e.Spawn("producer", func(p *Proc) {
		s.Notify() // nobody waiting: dropped, not queued
		p.Sleep(1)
	})
	done := false
	e.Spawn("late", func(p *Proc) {
		p.Sleep(2)
		done = true
		// A WaitSignal here would deadlock — the earlier Notify is gone.
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("late proc did not run")
	}
}

func TestSignalDoubleWaiterPanics(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	recovered := make(chan bool, 1)
	e.Spawn("w1", func(p *Proc) {
		p.WaitSignal(s)
	})
	e.Spawn("w2", func(p *Proc) {
		defer func() {
			recovered <- recover() != nil
			// Unblock the sim: wake w1.
			s.Notify()
		}()
		p.WaitSignal(s)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !<-recovered {
		t.Error("second waiter did not panic")
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Spawn after Run did not panic")
		}
	}()
	e.Spawn("late", func(p *Proc) {})
}

func TestWaitAllOrderIndependent(t *testing.T) {
	e := NewEngine()
	g1, g2, g3 := e.NewGate(), e.NewGate(), e.NewGate()
	var at float64
	e.Spawn("waiter", func(p *Proc) {
		p.WaitAll(g3, g1, g2) // waits in given order; must still finish at max
		at = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(1)
		g2.Fire()
		p.Sleep(1)
		g3.Fire()
		p.Sleep(1)
		g1.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3 {
		t.Errorf("WaitAll finished at %g want 3", at)
	}
}

func TestGateOnFireAfterFiredRunsInline(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	ran := false
	e.Spawn("a", func(p *Proc) {
		g.Fire()
		g.OnFireArg(func(any) { ran = true }, nil)
		if !ran {
			t.Error("OnFireArg on fired gate did not run inline")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
