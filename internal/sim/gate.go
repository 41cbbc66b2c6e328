package sim

// Gate is a one-shot completion signal. Processes block on it with Wait;
// Fire releases all current and future waiters. Gates also carry
// lightweight callbacks that run inline at fire time, which is how derived
// events (e.g. "message delivered, enqueue it at the receiver") are chained
// without spawning a process per hop.
type Gate struct {
	eng     *Engine
	fired   bool
	waiters []*Proc
	cbs     []gateCB
}

// gateCB is one registered fire callback: a static function plus argument.
// Hot paths register callbacks without allocating a closure per
// registration — the function value is a package-level variable and the
// argument is an object the caller already owns.
type gateCB struct {
	fn  func(any)
	arg any
}

// NewGate returns an unfired gate, recycled from the engine's free list when
// one is available. Recycled gates keep their waiter and callback slice
// capacity, so steady-state gate churn allocates nothing.
func (e *Engine) NewGate() *Gate {
	if n := len(e.gatePool); n > 0 {
		g := e.gatePool[n-1]
		e.gatePool[n-1] = nil
		e.gatePool = e.gatePool[:n-1]
		return g
	}
	return &Gate{eng: e}
}

// FreeGate returns a gate to the engine's free list for reuse by a later
// NewGate. The caller must guarantee no reference to the gate survives: it
// has fired (or will never fire), its waiters have been woken, and nobody
// will call Wait/OnFireArg/Fired on it again. The MPI request pool is the
// intended caller; misuse shows up as a waiter parked forever on a recycled
// gate, which Engine.Run reports as a deadlock.
func (e *Engine) FreeGate(g *Gate) {
	g.fired = false
	for i := range g.waiters {
		g.waiters[i] = nil
	}
	g.waiters = g.waiters[:0]
	for i := range g.cbs {
		g.cbs[i] = gateCB{}
	}
	g.cbs = g.cbs[:0]
	e.gatePool = append(e.gatePool, g)
}

// Fired reports whether the gate has fired.
func (g *Gate) Fired() bool { return g.fired }

// Fire releases the gate at the current virtual time. Firing an already
// fired gate is a no-op. Callbacks run inline, in registration order, before
// any waiter resumes.
func (g *Gate) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	// Detach the callback list before running it (a callback registering on
	// this gate re-enters OnFireArg, which runs immediately once fired), then
	// hand the cleared backing array back so a recycled gate keeps capacity.
	cbs := g.cbs
	g.cbs = nil
	for _, cb := range cbs {
		cb.fn(cb.arg)
	}
	for i := range cbs {
		cbs[i] = gateCB{}
	}
	g.cbs = cbs[:0]
	ws := g.waiters
	g.waiters = nil
	for _, w := range ws {
		// A waiter parks with no wakeup booked, so wakeAt schedules it now.
		g.eng.wakeAt(g.eng.now, w)
	}
	for i := range ws {
		ws[i] = nil
	}
	g.waiters = ws[:0]
}

// OnFireArg registers cb(arg) to run when the gate fires. Passing a
// package-level function value plus an argument the caller already owns
// allocates nothing: the argument travels in the callback slot rather than a
// captured closure environment. If the gate has already fired, cb runs
// immediately. Callbacks must not block: they execute inside whatever
// process happens to fire the gate.
func (g *Gate) OnFireArg(cb func(any), arg any) {
	if g.fired {
		cb(arg)
		return
	}
	g.cbs = append(g.cbs, gateCB{fn: cb, arg: arg})
}

// Wait blocks p until the gate fires. Returns immediately if already fired.
func (p *Proc) Wait(g *Gate) {
	if g.fired {
		return
	}
	g.waiters = append(g.waiters, p)
	p.park("gate")
}
