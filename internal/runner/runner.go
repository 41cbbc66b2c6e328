// Package runner fans independent work items across a bounded worker pool
// with deterministic, index-keyed results.
//
// Every cell of every experiment in this repository is an isolated
// simulation: a fresh sim.Engine, fabric and MPI world with no shared
// state, i.e. embarrassingly parallel at the replica level. The pool
// exploits that: workers pull case indices from a shared counter, each case
// writes only its own slot of the result slice, and the caller consumes
// the slice in index order — so tables, CSVs and traces rendered from the
// results are byte-identical to a sequential run regardless of how the
// workers interleave. Determinism lives in the keying, not the scheduling.
//
// When case costs are skewed — a tune grid mixing 1-rank and 216-rank
// replicas — the issue order matters for wall clock: if a worker draws the
// most expensive case last, every other worker idles behind it. MapOrder
// accepts an explicit issue order (longest-expected-case-first via
// OrderByCostDesc) so the big replicas start immediately and the small
// ones backfill, without changing the results: slots stay index-keyed.
package runner

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Map runs fn(i) for every i in [0, n) across min(workers, n) goroutines
// and returns the results in index order. workers <= 0 selects GOMAXPROCS.
// Cases are issued in index order; use MapOrder to issue expensive cases
// first on skewed workloads.
//
// Semantics are identical at every pool width, including workers == 1:
// ALL cases run — an early failure does not stop later cases — and the
// returned error (or re-raised panic) is the failure with the lowest case
// index, the one a stop-at-first-error sequential loop would have hit
// first. On error the result slice is still returned in full: slots whose
// case succeeded hold real values, slots whose case failed hold whatever
// fn returned alongside its error. Callers that continue past an error
// must consult it before trusting any slot.
//
// A re-raised panic carries the original panic value; the stack is the
// worker's, not fn's original frame, so fn implementations that panic
// should say which case they are.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapOrder(n, workers, nil, fn)
}

// MapOrder is Map with an explicit issue order: workers claim
// order[0], order[1], ... instead of 0, 1, ... A nil order means index
// order. The order affects ONLY scheduling — results are keyed by case
// index, so the returned slice (and the lowest-index error choice) is
// byte-identical for every order at every worker count. Panics if a
// non-nil order is not a permutation of [0, n).
//
// For workloads whose per-case costs differ by orders of magnitude, pass
// OrderByCostDesc of the expected costs: longest-expected-case-first keeps
// the pool busy instead of idling behind a big replica drawn last.
func MapOrder[T any](n, workers int, order []int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if order != nil {
		checkPermutation(n, order)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	panics := make([]any, n)
	caseAt := func(k int) int {
		if order == nil {
			return k
		}
		return order[k]
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			runCase(caseAt(k), fn, out, errs, panics)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= n {
						return
					}
					runCase(caseAt(k), fn, out, errs, panics)
				}
			}()
		}
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		if panics[i] != nil {
			panic(fmt.Sprintf("runner: case %d panicked: %v", i, panics[i]))
		}
		if errs[i] != nil {
			return out, errs[i]
		}
	}
	return out, nil
}

// OrderByCostDesc returns the issue order that schedules the highest
// expected cost first. Ties keep index order (stable), so the order — and
// with it any scheduling-sensitive observable like a progress log — is
// deterministic for a given cost slice.
func OrderByCostDesc(costs []float64) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	return order
}

// checkPermutation panics unless order is a permutation of [0, n) — a
// misbuilt order would silently skip cases and double-run others, which is
// a programmer error, not a runtime condition.
func checkPermutation(n int, order []int) {
	if len(order) != n {
		panic(fmt.Sprintf("runner: order has %d entries for %d cases", len(order), n))
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			panic(fmt.Sprintf("runner: order is not a permutation of [0,%d): bad entry %d", n, i))
		}
		seen[i] = true
	}
}

// runCase executes one case, catching a panic into its slot so the other
// workers finish their cases and the failure is reported deterministically.
func runCase[T any](i int, fn func(i int) (T, error), out []T, errs []error, panics []any) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
		}
	}()
	out[i], errs[i] = fn(i)
}
