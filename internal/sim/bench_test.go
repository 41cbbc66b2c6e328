package sim

import "testing"

// BenchmarkEventThroughput measures raw engine speed: how many
// schedule/resume cycles per second the cooperative scheduler sustains.
func BenchmarkEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := spawnSleepers(b.N)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// spawnSleepers returns an engine whose 64 goroutine processes sleep in a
// loop until about n wakeups have been dispatched.
func spawnSleepers(n int) *Engine {
	e := NewEngine()
	const procs = 64
	stop := false
	for i := 0; i < procs; i++ {
		e.Spawn("p", func(p *Proc) {
			for !stop {
				p.Sleep(1)
			}
		})
	}
	e.Spawn("ctl", func(p *Proc) {
		p.Sleep(float64(n) / procs)
		stop = true
	})
	return e
}

// BenchmarkGateFanout measures waking many waiters from one gate.
func BenchmarkGateFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		g := new(Gate)
		for w := 0; w < 256; w++ {
			e.Spawn("w", func(p *Proc) { p.Wait(g) })
		}
		e.Spawn("f", func(p *Proc) {
			p.Sleep(1)
			g.Fire()
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResourceReserve measures the bookkeeping primitive.
func BenchmarkResourceReserve(b *testing.B) {
	b.ReportAllocs()
	r := NewResource("x")
	ready := 0.0
	for i := 0; i < b.N; i++ {
		_, done := r.Reserve(ready, 1e-6)
		ready = done - 5e-7
	}
}

// BenchmarkStepThroughput is BenchmarkEventThroughput for step processes:
// 64 of them book a wakeup one virtual second ahead on every event, and each
// event is a step function call on the dispatching goroutine.
func BenchmarkStepThroughput(b *testing.B) { stepThroughput(b, nil, false) }

// BenchmarkSameTimeStepThroughput alternates each step process between a
// wakeup at the current time, which goes to the engine's same-time lane, and
// one a virtual second ahead, which goes to the heap.
func BenchmarkSameTimeStepThroughput(b *testing.B) { stepThroughput(b, nil, true) }

// BenchmarkTiedStepThroughput is BenchmarkStepThroughput under LIFO: every
// event ties with the other 63 processes' wakeups, so each dispatch goes
// through the tie-break.
func BenchmarkTiedStepThroughput(b *testing.B) { stepThroughput(b, LIFO(), false) }

// stepThroughput times about b.N events of spawnSteppers(tb, sameTime).
func stepThroughput(b *testing.B, tb TieBreak, sameTime bool) {
	b.ReportAllocs()
	e := spawnSteppers(b.N, tb, sameTime)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// spawnSteppers returns an engine under policy tb with 64 step processes
// that dispatch about n events in all. Each books its next wakeup one
// virtual second ahead or, with sameTime, alternately at the current time
// and one second ahead.
func spawnSteppers(n int, tb TieBreak, sameTime bool) *Engine {
	e := NewEngine()
	e.SetTieBreak(tb)
	const procs = 64
	end := float64(n) / procs
	if sameTime {
		end /= 2
	}
	for i := 0; i < procs; i++ {
		same := false
		e.SpawnStep(new(Proc), "p", func(p *Proc) {
			if p.Now() >= end {
				p.Exit()
				return
			}
			if same = sameTime && !same; same {
				p.WakeAt(p.Now())
			} else {
				p.WakeAt(p.Now() + 1)
			}
		})
	}
	return e
}
