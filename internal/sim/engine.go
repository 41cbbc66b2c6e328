// Package sim provides a sequential, deterministic, process-oriented
// discrete-event simulator.
//
// Simulation processes are goroutines, but exactly one process executes at
// any instant. There is no scheduler goroutine in the loop: a process that
// blocks (Sleep, gate wait, park) or finishes dispatches the next event
// itself. It pops the earliest event, advances the clock and hands control
// straight to that event's process, or keeps running if the event is its own
// wakeup. Run only starts the chain and waits for it to end. This
// cooperative scheme makes all shared state mutation race-free (every
// handoff is a channel operation) and the whole simulation deterministic:
// two runs with the same inputs produce identical virtual-time traces.
//
// Virtual time is a float64 in seconds. The clock only moves when an event
// is dispatched; a running process acts at the engine's current time.
//
// The scheduler is written for host speed (see MODEL.md §8): the event heap
// is typed (no container/heap interface boxing, so pushing an event does not
// allocate), a handoff between two processes is a single goroutine switch,
// a process whose own wakeup is dispatched next keeps running with no switch
// at all, and the goroutines backing finished processes are parked on a free
// list and reused by later Spawn calls instead of being torn down and
// recreated. None of these change the schedule: the dispatch order remains
// the strict (time, sequence) order of the event heap.
package sim

import (
	"fmt"
	"runtime"
	"sort"
)

// Engine is the simulation scheduler. Create one with NewEngine, add
// processes with Spawn, then call Run to execute until no events remain.
type Engine struct {
	now    float64
	events eventHeap
	seq    int64
	live   map[*Proc]struct{}
	idseq  int
	closed bool
	tie    TieBreak
	hook   func(t float64, p *Proc)

	// done wakes Run: the process that finds no event left to dispatch
	// sends on it, and so does each process goroutine as it exits during
	// Run's teardown.
	done chan struct{}

	// pool holds the parked goroutines of finished processes, ready to be
	// re-armed by Spawn. Run releases them when the simulation ends so an
	// abandoned engine does not pin goroutines (and through them, itself).
	pool []*Proc

	// gatePool holds gates recycled via FreeGate, ready to be re-armed by
	// NewGate with their waiter/callback slice capacity intact. Owned by the
	// engine so parallel replicas (one engine each) never share free lists.
	gatePool []*Gate
}

type event struct {
	t   float64
	seq int64
	p   *Proc
}

func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap over (time, sequence), hand-rolled so push
// and pop stay allocation-free (container/heap boxes every element in an
// interface).
type eventHeap []event

func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// down sifts the element at i toward the leaves.
func (h eventHeap) down(i int) {
	n := len(h)
	ev := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			c = r
		}
		if !eventLess(h[c], ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	root := old[0]
	n := len(old) - 1
	if n > 0 {
		old[0] = old[n]
	}
	old[n] = event{} // release the *Proc for GC
	*h = old[:n]
	if n > 1 {
		(*h).down(0)
	}
	return root
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		done: make(chan struct{}),
		live: make(map[*Proc]struct{}),
	}
}

// Now reports the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetTieBreak installs a policy for ordering same-time events. A nil policy
// (the default) is equivalent to FIFO and skips the tie-collection work on
// every dispatch. Install a policy before Run; changing it mid-run is legal
// but makes the schedule hard to describe. The policy sees every tie, the
// blocking process's own wakeup included: when it picks that wakeup, the
// process keeps running inline exactly as it does with no policy.
func (e *Engine) SetTieBreak(tb TieBreak) { e.tie = tb }

// SetEventHook installs an observer called once per dispatched event, after
// the clock has advanced to the event's time and before the process resumes.
// It runs on the goroutine doing the dispatch (Run's for the first event,
// then the process that blocked or finished), but calls are still
// serialized, one per event in dispatch order, so the hook needs no lock.
// The hook must not call back into the engine. Checkers use it to assert
// virtual-clock monotonicity and to count scheduling decisions.
func (e *Engine) SetEventHook(h func(t float64, p *Proc)) { e.hook = h }

// Live reports the number of processes that have been spawned and not yet
// returned. After a Run that returned nil it is zero by construction.
func (e *Engine) Live() int { return len(e.live) }

// LiveProcs describes the still-live processes (name, id, and what they are
// blocked on), sorted, for teardown diagnostics.
func (e *Engine) LiveProcs() []string {
	names := make([]string, 0, len(e.live))
	for p := range e.live {
		names = append(names, fmt.Sprintf("%s(#%d) blocked on %s", p.Name, p.ID, p.blockedOn))
	}
	sort.Strings(names)
	return names
}

// Proc is a simulation process. All methods must be called from the
// goroutine running the process's body function.
type Proc struct {
	eng       *Engine
	ID        int
	Name      string
	resume    chan struct{}
	pending   bool // an event for this proc is scheduled and not yet delivered
	blockedOn string
	fn        func(p *Proc) // body to run on next resume (pooled goroutines)
}

// Eng returns the engine this process belongs to.
func (p *Proc) Eng() *Engine { return p.eng }

// Now reports the current virtual time. It equals the engine's clock while
// the process is running.
func (p *Proc) Now() float64 { return p.eng.now }

// Spawn creates a process that starts at the current virtual time and runs
// fn. It may be called before Run or from inside a running process. The
// goroutine backing the process comes from the engine's free list when one
// is available; the returned *Proc is then a recycled object with a fresh
// ID and name, which is indistinguishable from a new process to everything
// but pointer-identity comparisons across process lifetimes.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn after Run returned")
	}
	var p *Proc
	if n := len(e.pool); n > 0 {
		p = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		p.ID = e.idseq
		p.Name = name
		p.fn = fn
	} else {
		p = &Proc{eng: e, ID: e.idseq, Name: name, resume: make(chan struct{}), fn: fn}
		go p.run()
	}
	e.idseq++
	e.live[p] = struct{}{}
	e.wakeAt(e.now, p)
	return p
}

// run is the persistent body of a process goroutine: execute the assigned
// function, park on the engine's free list, dispatch the next event, wait for
// the next assignment. A nil assignment is the release signal from Run's
// teardown. The deferred send tells Run the goroutine is gone, whether it
// returns here or a blocked process exits through runtime.Goexit in swap.
func (p *Proc) run() {
	e := p.eng
	defer func() { e.done <- struct{}{} }()
	for {
		<-p.resume
		fn := p.fn
		if fn == nil {
			return
		}
		p.fn = nil
		fn(p)
		delete(e.live, p)
		e.pool = append(e.pool, p)
		e.handoff(e.next())
	}
}

// wakeAt schedules p to resume at time t (>= now). It is a no-op if p
// already has a pending wakeup, preserving the invariant that a parked
// process is resumed exactly once.
func (e *Engine) wakeAt(t float64, p *Proc) {
	if p.pending {
		return
	}
	if t < e.now {
		t = e.now
	}
	p.pending = true
	e.events.push(event{t: t, seq: e.seq, p: p})
	e.seq++
}

// Run executes the simulation until no events remain. It returns an error if
// processes are still alive but permanently blocked (deadlock), listing them.
// Run may be called once per engine.
func (e *Engine) Run() error {
	if e.closed {
		panic("sim: Run called twice")
	}
	if p := e.next(); p != nil {
		p.resume <- struct{}{}
		<-e.done
	}
	e.closed = true
	var err error
	if len(e.live) > 0 {
		names := e.LiveProcs()
		err = fmt.Errorf("sim: deadlock, %d live processes: %v", len(names), names)
	}
	e.release()
	return err
}

// release ends every goroutine the engine still owns, pooled and blocked
// alike, one at a time in Proc.ID order, and waits for each to exit. A pooled
// goroutine finds no assignment and returns; a blocked one resumes on the
// closed engine and exits through runtime.Goexit, running its body's
// deferred calls. Blocked processes stay in the live set, so Live and
// LiveProcs still describe a deadlock afterwards.
func (e *Engine) release() {
	procs := e.pool
	e.pool = nil
	for p := range e.live {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].ID < procs[j].ID })
	for _, p := range procs {
		p.fn = nil
		p.resume <- struct{}{}
		<-e.done
	}
}

// next dispatches the earliest pending event: it pops the event (letting the
// tie-break policy pick among same-time events), advances the clock, calls
// the hook and returns the process to resume, or nil when no events remain.
// Whichever goroutine holds control calls it (Run for the first event, then
// the process that blocks or finishes), so one call runs at a time.
func (e *Engine) next() *Proc {
	if len(e.events) == 0 {
		return nil
	}
	ev := e.events.pop()
	if e.tie != nil && len(e.events) > 0 && e.events[0].t == ev.t {
		ev = e.breakTie(ev)
	}
	if ev.t < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %g -> %g", e.now, ev.t))
	}
	e.now = ev.t
	if e.hook != nil {
		e.hook(ev.t, ev.p)
	}
	ev.p.pending = false
	return ev.p
}

// handoff passes control to q, or back to Run when q is nil because no
// events remain.
func (e *Engine) handoff(q *Proc) {
	if q == nil {
		e.done <- struct{}{}
		return
	}
	q.resume <- struct{}{}
}

// breakTie collects every event tied with ev at the same virtual time, asks
// the policy which to run, and reinserts the rest with their original
// sequence numbers so their relative (FIFO) order is preserved. Successive
// heap pops at equal times come off in ascending sequence order, so the
// candidate slice the policy indexes into is FIFO-ordered.
func (e *Engine) breakTie(ev event) event {
	ties := []event{ev}
	for len(e.events) > 0 && e.events[0].t == ev.t {
		ties = append(ties, e.events.pop())
	}
	k := e.tie.Choose(len(ties))
	if k < 0 || k >= len(ties) {
		panic(fmt.Sprintf("sim: tie-break chose %d of %d candidates", k, len(ties)))
	}
	for i := range ties {
		if i != k {
			e.events.push(ties[i])
		}
	}
	return ties[k]
}

// SleepUntil blocks the process until virtual time t. Times in the past
// resume immediately (at the current time).
func (p *Proc) SleepUntil(t float64) {
	p.eng.wakeAt(t, p)
	p.swap("sleep")
}

// Sleep blocks the process for d seconds of virtual time.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.eng.now + d)
}

// park blocks the process with no scheduled wakeup; something else must call
// wakeAt (via a Gate) to resume it. why is reported on deadlock.
func (p *Proc) park(why string) {
	p.swap(why)
}

// swap blocks p and dispatches the next event in its place. When that event
// is p's own wakeup (a Sleep(0) with no tied peer, a lone sleeper whose
// wakeup is earliest, or the tie-break policy's pick), p keeps running
// inline with no goroutine switch. Otherwise p hands control straight to the
// event's process (or to Run when no events remain) and waits on its own
// resume channel: one goroutine switch per handoff. The event dispatched is
// the one the heap order dictates whichever goroutine pops it, so the
// schedule does not depend on who dispatches. A process resumed after Run
// has closed the engine is being torn down and exits via runtime.Goexit.
func (p *Proc) swap(why string) {
	e := p.eng
	q := e.next()
	if q == p {
		return
	}
	p.blockedOn = why
	e.handoff(q)
	<-p.resume
	if e.closed {
		runtime.Goexit()
	}
	p.blockedOn = ""
}
