package sim

import (
	"runtime"
	"testing"
)

// TestAllocBudgetEventDispatch pins steady-state dispatch of goroutine
// processes at zero allocations per event: 64 processes sleeping in a loop
// exercise schedule, heap pop and resume with every event node recycled.
// A run's fixed costs (starting the goroutines, growing their stacks,
// runtime background work) vary by a few dozen allocations, so the test
// takes the malloc difference of a short and a long run, as the mpi
// budgets do: the fixed costs cancel and what is left grows with the
// events. A truncating allocs/op would read one allocation
// every few dozen events as 0; here it is hundreds.
func TestAllocBudgetEventDispatch(t *testing.T) {
	// Two runs of the same length differ by up to ~65 allocations of
	// runtime background work; one allocation per 64 events adds 960 to
	// the long run.
	const short, long, spread = 1 << 12, 1 << 16, 256
	mallocs := func(events int) uint64 {
		e := spawnSleepers(events)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(short) // leaves the runtime's caches as warm for one run as the other
	a, b := mallocs(short), mallocs(long)
	if b > a+spread {
		t.Errorf("event dispatch: %d allocations over %d events, %d over %d: budget 0 per event (%d for run-to-run spread)",
			a, short, b, long, spread)
	}
}

// TestAllocBudgetStepDispatch pins step-process dispatch at zero allocations
// per event, as TestAllocBudgetEventDispatch does for goroutine processes,
// for wakeups booked ahead on the heap and for wakeups at the current time,
// which go through the same-time lane.
func TestAllocBudgetStepDispatch(t *testing.T) {
	checkSteadyDispatch(t, "step dispatch", nil, false)
	checkSteadyDispatch(t, "same-time step dispatch", nil, true)
}

// TestAllocBudgetTiedDispatch pins dispatch through a tie-break policy at
// zero allocations per event in steady state: under LIFO every event ties
// with 63 others, and the tie candidates must not be gathered in a fresh
// slice per dispatch.
func TestAllocBudgetTiedDispatch(t *testing.T) {
	checkSteadyDispatch(t, "tied step dispatch under LIFO", LIFO(), false)
}

// steadyGrowthAllocs bounds the allocations of a whole spawnSteppers run
// once its 64 processes are spawned. Steady-state dispatch allocates
// nothing: only the event heap, the same-time lane and the tie buffer grow,
// a few times each, to hold the processes' events (14-15 allocations
// measured, with and without -race). An allocation per event, or per
// instant of virtual time, grows with the run instead.
const steadyGrowthAllocs = 64

// checkSteadyDispatch runs 32Ki events of spawnSteppers(tb, sameTime), over
// 256 or more instants of virtual time, and requires the run to stay within
// steadyGrowthAllocs. A per-event budget would need a truncating average,
// which misses one allocation every few dozen events, such as a lane that
// loses its capacity each time it drains.
func checkSteadyDispatch(t *testing.T, name string, tb TieBreak, sameTime bool) {
	t.Helper()
	const events = 1 << 15
	e := spawnSteppers(events, tb, sameTime)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > steadyGrowthAllocs {
		t.Errorf("%s: %d allocations over %d events, budget 0 per event (%d in all for slice growth)",
			name, n, events, steadyGrowthAllocs)
	}
}
