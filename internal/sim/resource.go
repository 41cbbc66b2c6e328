package sim

// Resource models a serially reusable facility (a NIC wire direction, a
// process's CPU, a shared-memory bus) with FIFO next-free-time semantics:
// each reservation starts at max(ready, next-free) and occupies the resource
// for its duration.
//
// Reservations are pure bookkeeping — they do not block. Because the engine
// executes processes in nondecreasing virtual-time order, reservation
// requests arrive in the order the work is initiated, which yields FIFO
// service. A process that reserves slightly ahead of the clock (pipelining
// chunks of a message) holds its slot; later requests queue behind it.
type Resource struct {
	Name string
	free float64 // next time the resource is idle

	stats ResourceStats

	// Audit, when non-nil, observes every reservation as (ready, start,
	// done). Checkers install it to assert the FIFO non-overlap invariant
	// (start >= ready, start >= previous done) from outside the package.
	Audit func(ready, start, done float64)

	// Perturb, when non-nil, maps each reservation's requested duration to
	// the duration actually booked, given the reservation's start time. The
	// fault-injection layer (internal/faults) installs it to model CPU
	// stragglers, pause windows, preemptions and link degradation as
	// stretched occupancies. Implementations must be deterministic in
	// (start, dur, call order); negative results are clamped to zero. The
	// perturbed duration feeds the accounting stats, so busy/idle
	// partitioning stays exact under injection.
	Perturb func(start, dur float64) float64
}

// ResourceStats is a point-in-time snapshot of a resource's accounting.
// All durations are virtual seconds. The lifetime invariants, checked by
// the model checker on every explored schedule, are:
//
//	BusyTime >= 0, QueueWait >= 0, PeakBacklog >= 0
//	BusyTime <= LastDone - FirstStart   (reservations never overlap)
//	BusyTime + IdleTime(elapsed) == elapsed for any elapsed >= LastDone
//	sum(ByConsumer) == TaggedBusy <= BusyTime (tagged work is a subset)
type ResourceStats struct {
	Name         string
	Reservations int64   // total Reserve calls (including zero-duration ones)
	BusyTime     float64 // cumulative reserved duration
	QueueWait    float64 // cumulative start-ready delay summed over reservations
	PeakBacklog  float64 // max seconds of already-queued work found at a Reserve call
	FirstStart   float64 // start time of the first reservation (0 if none)
	LastDone     float64 // completion time of the latest-finishing reservation
	TaggedBusy   float64 // cumulative duration booked through ReserveAs
	// ByConsumer splits TaggedBusy by consumer tag. It is nil until the
	// first ReserveAs call, so untagged-only resources keep a flat struct.
	ByConsumer map[string]float64
}

// IdleTime reports how long the resource sat unreserved within a window of
// elapsed virtual seconds starting at time zero. By construction
// BusyTime + IdleTime(elapsed) == elapsed whenever elapsed covers the whole
// run (elapsed >= LastDone); the result is clamped at zero for windows that
// end mid-reservation.
func (s ResourceStats) IdleTime(elapsed float64) float64 {
	idle := elapsed - s.BusyTime
	if idle < 0 {
		idle = 0
	}
	return idle
}

// Utilization reports BusyTime as a fraction of the elapsed window (0 when
// the window is empty).
func (s ResourceStats) Utilization(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return s.BusyTime / elapsed
}

// NewResource returns an idle resource available from time zero.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// Reserve books the resource for dur seconds starting no earlier than ready.
// It returns the start and completion times of the reservation.
func (r *Resource) Reserve(ready, dur float64) (start, done float64) {
	if dur < 0 {
		dur = 0
	}
	if ready < 0 {
		ready = 0
	}
	start = ready
	if backlog := r.free - ready; backlog > 0 {
		start = r.free
		if backlog > r.stats.PeakBacklog {
			r.stats.PeakBacklog = backlog
		}
	}
	if r.Perturb != nil {
		if dur = r.Perturb(start, dur); dur < 0 {
			dur = 0
		}
	}
	done = start + dur
	r.free = done
	if r.stats.Reservations == 0 {
		r.stats.FirstStart = start
	}
	r.stats.Reservations++
	r.stats.BusyTime += dur
	r.stats.QueueWait += start - ready
	if done > r.stats.LastDone {
		r.stats.LastDone = done
	}
	if r.Audit != nil {
		r.Audit(ready, start, done)
	}
	return start, done
}

// ReserveAs books the resource like Reserve but attributes the booked
// duration to a named consumer. A resource serves one reservation at a
// time regardless of who asked — ReserveAs only adds attribution, so
// multiple consumers (a rank's own proc, sibling ranks' chunk pipelines
// advanced by a progress agent, a node's offload engine clients) contend
// for the same serial facility and the checker can prove the per-consumer
// shares sum back to the total busy time.
func (r *Resource) ReserveAs(consumer string, ready, dur float64) (start, done float64) {
	before := r.stats.BusyTime
	start, done = r.Reserve(ready, dur)
	booked := r.stats.BusyTime - before // post-Perturb duration actually billed
	r.stats.TaggedBusy += booked
	if r.stats.ByConsumer == nil {
		r.stats.ByConsumer = make(map[string]float64)
	}
	r.stats.ByConsumer[consumer] += booked
	return start, done
}

// BusyTime reports the total time the resource has been reserved.
func (r *Resource) BusyTime() float64 { return r.stats.BusyTime }

// Snapshot returns a copy of the resource's accounting counters. The copy
// is detached: later reservations do not mutate it.
func (r *Resource) Snapshot() ResourceStats {
	s := r.stats
	s.Name = r.Name
	if r.stats.ByConsumer != nil {
		s.ByConsumer = make(map[string]float64, len(r.stats.ByConsumer))
		for k, v := range r.stats.ByConsumer {
			s.ByConsumer[k] = v
		}
	}
	return s
}
