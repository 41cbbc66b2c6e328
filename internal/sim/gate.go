package sim

// Gate is a one-shot completion signal: a fired flag and the processes
// waiting on it. Processes block on it with Wait; Fire releases all current
// and future waiters. The zero value is an unfired gate ready to use, so an
// object whose completion it signals (an MPI request, a Split rendezvous)
// holds it by value, and a pooled owner re-arms it with Reset.
type Gate struct {
	fired   bool
	waiters []*Proc
}

// Fired reports whether the gate has fired.
func (g *Gate) Fired() bool { return g.fired }

// Fire releases the gate at the current virtual time, waking each waiter
// through its own engine. Firing an already fired gate is a no-op.
func (g *Gate) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	for i, w := range g.waiters {
		// A waiter parks with no wakeup booked, so wakeAt schedules it now.
		w.eng.wakeAt(w.eng.now, w)
		g.waiters[i] = nil
	}
	g.waiters = g.waiters[:0]
}

// Reset re-arms a fired gate for its owner's next use. Fire has already
// woken and dropped every waiter; the list keeps its capacity, so a
// recycled gate's waits allocate nothing.
func (g *Gate) Reset() { g.fired = false }

// Wait blocks p until the gate fires. Returns immediately if already fired.
func (p *Proc) Wait(g *Gate) {
	if g.fired {
		return
	}
	g.waiters = append(g.waiters, p)
	p.park("gate")
}
