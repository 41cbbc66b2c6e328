package sim

import "testing"

// TestAllocBudgetEventDispatch pins steady-state event dispatch at zero
// allocations per event: 64 processes sleeping in a loop exercise schedule,
// heap pop and resume with every event node recycled. A reintroduced
// per-event allocation shows up as at least one alloc/op.
func TestAllocBudgetEventDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need benchmark iterations")
	}
	res := testing.Benchmark(BenchmarkEventThroughput)
	if got := res.AllocsPerOp(); got != 0 {
		t.Errorf("event dispatch: %d allocs/op, budget 0", got)
	}
}

// TestAllocBudgetStepDispatch pins step-process dispatch at zero allocations
// per event, as TestAllocBudgetEventDispatch does for goroutine processes.
func TestAllocBudgetStepDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need benchmark iterations")
	}
	res := testing.Benchmark(BenchmarkStepThroughput)
	if got := res.AllocsPerOp(); got != 0 {
		t.Errorf("step dispatch: %d allocs/op, budget 0", got)
	}
}
