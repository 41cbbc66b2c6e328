// Package sim provides a sequential, deterministic, process-oriented
// discrete-event simulator.
//
// A simulation process comes in one of two forms. A goroutine process
// (Spawn) runs a body function on its own goroutine and blocks in Sleep,
// gate waits and parks. A step process (SpawnStep) has no goroutine: it is a
// state machine whose step function the engine calls each time one of its
// events is dispatched, and which books its next event with WakeAt before
// returning. Exactly one process executes at any instant. There is no
// scheduler goroutine in the loop: a goroutine process that blocks or
// finishes dispatches the next events itself. It pops the earliest event,
// advances the clock and runs the step function inline if the event belongs
// to a step process, repeating until it reaches an event of a goroutine
// process. It then hands control straight to that process, or keeps running
// if the event is its own wakeup. Run only starts the chain and waits for it
// to end. This cooperative scheme makes all shared state mutation race-free
// (every handoff between goroutines is a channel operation) and the whole
// simulation deterministic: two runs with the same inputs produce identical
// virtual-time traces.
//
// Virtual time is a float64 in seconds. The clock only moves when an event
// is dispatched; a running process acts at the engine's current time.
//
// The scheduler is written for host speed (see MODEL.md §8): the event heap
// is typed (no container/heap interface boxing, so pushing an event does not
// allocate), a step process's event costs a function call, a handoff between
// two goroutine processes is a single goroutine switch, a process whose own
// wakeup is dispatched next keeps running with no switch at all, and
// finished goroutine processes are parked on a free list (goroutine and all)
// and reused by later Spawn calls instead of being torn down and recreated.
// That free list is the engine's only pool: a step process's Proc and a
// Gate belong to the object whose lifetime they share (a transfer, a
// request), which recycles them with itself. None of these change the
// schedule: the dispatch order remains the strict (time, sequence) order of
// the event heap.
//
// Many events are booked for the instant they run: a spawn, a Sleep(0), a
// gate fire or a transfer step that continues at once. With no tie-break
// policy installed such an event skips the heap and goes to a FIFO lane, a
// slice in booking order. Dispatch pops the heap's events at the current
// time first, then the lane, then the rest of the heap. That is still the
// (time, sequence) order: the lane is empty whenever the clock advances, so
// every heap event at the current time was booked before the clock reached
// it and has a lower sequence number than every lane event. A policy needs
// to see every tie, so with one installed the lane is off, and SetTieBreak
// moves any lane events into the heap with their sequence numbers.
package sim

import (
	"fmt"
	"runtime"
	"sort"
)

// Engine is the simulation scheduler. Create one with NewEngine, add
// processes with Spawn or SpawnStep, then call Run to execute until no
// events remain.
type Engine struct {
	now    float64
	events eventHeap
	seq    int64
	idseq  int
	closed bool
	tie    TieBreak
	hook   func(t float64, p *Proc)

	// lane holds the events booked at the current time while no tie-break
	// policy is installed, in booking order; lane[laneHead:] are still to
	// run. It empties before the clock advances.
	lane     []event
	laneHead int

	// live holds the spawned processes that have not returned, in no
	// particular order; each Proc stores its index for swap-removal.
	live []*Proc

	// ties is breakTie's reused candidate buffer.
	ties []event

	// done wakes Run: the process that finds no event left to dispatch
	// sends on it, and so does each process goroutine as it exits during
	// Run's teardown.
	done chan struct{}

	// pool holds the parked goroutines of finished processes, ready to be
	// re-armed by Spawn. Run releases them when the simulation ends so an
	// abandoned engine does not pin goroutines (and through them, itself).
	pool []*Proc
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
	return &Engine{done: make(chan struct{})}
}

// Now reports the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetTieBreak installs a policy for ordering same-time events. A nil policy
// (the default) is equivalent to FIFO and skips the tie-collection work on
// every dispatch: events booked for the current time then go to the FIFO
// lane instead of the heap. Install a policy before Run; changing it mid-run
// is legal but makes the schedule hard to describe. SetTieBreak moves the
// lane's events into the heap with their original sequence numbers, so a
// new policy sees them among the ties. The policy sees every tie, the
// blocking process's own wakeup included: when it picks that wakeup, the
// process keeps running inline exactly as it does with no policy.
func (e *Engine) SetTieBreak(tb TieBreak) {
	e.tie = tb
	for _, ev := range e.lane[e.laneHead:] {
		e.events.push(ev)
	}
	e.resetLane()
}

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
	for _, p := range e.live {
		names = append(names, fmt.Sprintf("%s(#%d) blocked on %s", p.Name, p.ID, p.blockedOn))
	}
	sort.Strings(names)
	return names
}

// Proc is a simulation process. The blocking methods (SleepUntil, Sleep,
// Wait) must be called from the goroutine running a goroutine process's body
// function; Exit only from a step process's own step function.
type Proc struct {
	eng       *Engine
	ID        int
	Name      string
	resume    chan struct{} // nil for a step process
	pending   bool          // an event for this proc is scheduled and not yet delivered
	liveAt    int           // index in the engine's live set while alive
	blockedOn string
	fn        func(p *Proc) // body to run on next resume (pooled goroutines)
	step      func(p *Proc) // a step process's step function; nil once it exits
}

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
	} else {
		p = &Proc{eng: e, resume: make(chan struct{})}
		go p.run()
	}
	p.fn = fn
	return e.admit(p, name)
}

// SpawnStep starts p as a step process: a process with no goroutine, which
// the engine drives by calling step each time one of its events is
// dispatched. p is a zero Proc or one whose step process has exited; the
// caller owns it, typically as a field of the object the process works on,
// and the engine keeps no reference once the process exits. Spawning a live
// step process panics. The process takes its ID, its first event (at the
// current time) and that event's hook call exactly as Spawn does. Inside
// step the process books its next event with WakeAt, ends with Exit, or
// returns with neither and stays parked until another process calls its
// WakeAt. step runs on whichever goroutine dispatches the event, so it must
// not block: SleepUntil, Sleep and Wait are for goroutine processes only.
func (e *Engine) SpawnStep(p *Proc, name string, step func(p *Proc)) {
	if e.closed {
		panic("sim: SpawnStep after Run returned")
	}
	if p.step != nil {
		panic("sim: SpawnStep of live step process " + p.Name)
	}
	p.eng, p.blockedOn, p.step = e, "park", step
	e.admit(p, name)
}

// admit gives a new or recycled p the next ID and its name, adds it to the
// live set and books its first event at the current time.
func (e *Engine) admit(p *Proc, name string) *Proc {
	p.ID = e.idseq
	p.Name = name
	e.idseq++
	p.liveAt = len(e.live)
	e.live = append(e.live, p)
	e.wakeAt(e.now, p)
	return p
}

// leave removes p from the live set by moving the last live process into
// its slot.
func (e *Engine) leave(p *Proc) {
	last := len(e.live) - 1
	q := e.live[last]
	e.live[p.liveAt], q.liveAt = q, p.liveAt
	e.live[last] = nil
	e.live = e.live[:last]
}

// WakeAt books p's next event at time t, or at the current time if t is
// earlier. It is a no-op while p already has an event booked. A step process
// calls it on itself to continue after a wait; any process may call it to
// wake a parked step process.
func (p *Proc) WakeAt(t float64) { p.eng.wakeAt(t, p) }

// Exit ends a step process: it leaves the live set at once, and the engine
// drops p when the step function returns. The process must have no event
// booked. From then on p belongs to its owner alone, which may zero it or
// hand it to a later SpawnStep, even before the step function returns.
func (p *Proc) Exit() {
	p.eng.leave(p)
	p.step = nil
}

// run is the persistent body of a process goroutine: execute the assigned
// function, park on the engine's free list, dispatch the next events, wait
// for the next assignment. A nil assignment is the release signal from Run's
// teardown. The deferred send tells Run the goroutine is gone, whether it
// returns here or a blocked process exits through runtime.Goexit in swap.
func (p *Proc) run() {
	e := p.eng
	defer func() { e.done <- struct{}{} }()
	<-p.resume
	for p.fn != nil {
		fn := p.fn
		p.fn = nil
		fn(p)
		e.leave(p)
		e.pool = append(e.pool, p)
		// A step process run by dispatch may Spawn, re-arm this very
		// goroutine and get its first event dispatched: then the new body
		// runs here with no handoff.
		if q := e.dispatch(); q != p {
			e.handoff(q)
			<-p.resume
		}
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
	ev := event{t: t, seq: e.seq, p: p}
	e.seq++
	if t == e.now && e.tie == nil {
		e.lane = append(e.lane, ev)
		return
	}
	e.events.push(ev)
}

// resetLane empties the lane, keeping its capacity.
func (e *Engine) resetLane() {
	clear(e.lane)
	e.lane, e.laneHead = e.lane[:0], 0
}

// Run executes the simulation until no events remain. It returns an error if
// processes are still alive but permanently blocked (deadlock), listing them.
// Run may be called once per engine.
func (e *Engine) Run() error {
	if e.closed {
		panic("sim: Run called twice")
	}
	if p := e.dispatch(); p != nil {
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
// deferred calls. Parked step processes own no goroutine and are skipped.
// Blocked processes of both kinds stay in the live set, so Live and
// LiveProcs still describe a deadlock afterwards.
func (e *Engine) release() {
	procs := e.pool
	e.pool = nil
	for _, p := range e.live {
		if p.resume != nil {
			procs = append(procs, p)
		}
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].ID < procs[j].ID })
	for _, p := range procs {
		p.fn = nil
		p.resume <- struct{}{}
		<-e.done
	}
}

// dispatch dispatches events until it reaches one that belongs to a
// goroutine process and returns that process, or nil when no events remain.
// A step process's event runs inline: its step function is called right
// here, on the dispatching goroutine, with no goroutine switch. Whichever
// goroutine holds control calls it (Run for the first event, then the
// goroutine process that blocks or finishes), so one call runs at a time.
func (e *Engine) dispatch() *Proc {
	for {
		p := e.next()
		if p == nil || p.resume != nil {
			return p
		}
		p.step(p)
	}
}

// next dispatches the earliest pending event: it pops the event (from the
// heap while the heap holds events at the current time, then from the lane,
// letting the tie-break policy pick among same-time heap events), advances
// the clock, calls the hook and returns the event's process, or nil when no
// events remain.
func (e *Engine) next() *Proc {
	var ev event
	switch {
	case e.laneHead < len(e.lane) && (len(e.events) == 0 || e.events[0].t != e.now):
		ev = e.lane[e.laneHead]
		if e.laneHead++; e.laneHead == len(e.lane) {
			e.resetLane()
		}
	case len(e.events) > 0:
		ev = e.events.pop()
		if e.tie != nil && len(e.events) > 0 && e.events[0].t == ev.t {
			ev = e.breakTie(ev)
		}
	default:
		return nil
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
	ties := append(e.ties[:0], ev)
	for len(e.events) > 0 && e.events[0].t == ev.t {
		ties = append(ties, e.events.pop())
	}
	e.ties = ties
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

// swap blocks p and dispatches events in its place, running step processes
// inline, until an event of a goroutine process comes up. When that event is
// p's own wakeup (a Sleep(0) with no tied peer, a lone sleeper whose wakeup
// is earliest, or the tie-break policy's pick), p keeps running inline with
// no goroutine switch. Otherwise p hands control straight to the event's
// process (or to Run when no events remain) and waits on its own resume
// channel: one goroutine switch per handoff. The event dispatched is the one
// the heap order dictates whichever goroutine pops it, so the schedule does
// not depend on who dispatches. A process resumed after Run has closed the
// engine is being torn down and exits via runtime.Goexit.
func (p *Proc) swap(why string) {
	if p.resume == nil {
		panic("sim: step process " + p.Name + " blocked; step processes wait with WakeAt")
	}
	e := p.eng
	q := e.dispatch()
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
