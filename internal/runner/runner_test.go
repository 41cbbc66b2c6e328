package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdering: results land in index order no matter how workers
// interleave (later cases finish first via inverted sleeps).
func TestMapOrdering(t *testing.T) {
	const n = 50
	out, err := Map(n, 8, func(i int) (int, error) {
		time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d results, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapSequentialParity: workers=1 has the SAME semantics as the
// parallel pool — all cases run even after an early error, the
// lowest-index error is reported, and every successful slot holds its real
// value. (The sequential path used to stop at the first error and leave
// later slots zero-valued, so the same grid could return different partial
// results at different -workers settings.)
func TestMapSequentialParity(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64 // the pool's workers count concurrently
		out, err := Map(10, workers, func(i int) (int, error) {
			calls.Add(1)
			if i == 3 {
				return 0, boom
			}
			return i * i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
		if workers == 1 && calls.Load() != 10 {
			t.Fatalf("sequential path made %d calls, want 10 (run all, report lowest)", calls.Load())
		}
		for i, v := range out {
			want := i * i
			if i == 3 {
				want = 0
			}
			if v != want {
				t.Fatalf("workers=%d: out[%d] = %d, want %d (partial results must be complete)", workers, i, v, want)
			}
		}
	}
}

// TestMapSequentialPanicParity: workers=1 catches panics per-case and
// re-raises the lowest-index one after all cases ran, like the pool does.
func TestMapSequentialPanicParity(t *testing.T) {
	calls := 0
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected re-raised panic")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "case 2 panicked") {
			t.Fatalf("panic = %q, want lowest case index named", s)
		}
		if calls != 6 {
			t.Fatalf("sequential path made %d calls, want 6 (run all before re-raising)", calls)
		}
	}()
	Map(6, 1, func(i int) (int, error) {
		calls++
		if i == 2 || i == 4 {
			panic(fmt.Sprintf("boom %d", i))
		}
		return i, nil
	})
}

// TestMapOrderScheduling: an explicit issue order changes only the
// sequence fn is invoked in; the results stay index-keyed and identical.
func TestMapOrderScheduling(t *testing.T) {
	const n = 8
	order := []int{7, 6, 5, 4, 3, 2, 1, 0}
	var issued []int
	out, err := MapOrder(n, 1, order, func(i int) (int, error) {
		issued = append(issued, i)
		return i * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range issued {
		if i != order[k] {
			t.Fatalf("issue sequence %v, want %v", issued, order)
		}
	}
	for i, v := range out {
		if v != i*10 {
			t.Fatalf("out[%d] = %d, want %d (results must be index-keyed)", i, v, i*10)
		}
	}
	// Same order through the parallel pool: same results.
	out2, err := MapOrder(n, 3, order, func(i int) (int, error) { return i * 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("parallel MapOrder diverged at %d: %d vs %d", i, out[i], out2[i])
		}
	}
}

// TestMapOrderRejectsBadOrder: non-permutations are programmer errors.
func TestMapOrderRejectsBadOrder(t *testing.T) {
	for _, bad := range [][]int{
		{0, 1},        // wrong length
		{0, 1, 1, 3},  // duplicate
		{0, 1, 2, 4},  // out of range
		{-1, 1, 2, 3}, // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("order %v: expected panic", bad)
				}
			}()
			MapOrder(4, 2, bad, func(i int) (int, error) { return i, nil })
		}()
	}
}

// TestOrderByCostDesc: descending by cost, index order on ties.
func TestOrderByCostDesc(t *testing.T) {
	got := OrderByCostDesc([]float64{1, 9, 3, 9, 0.5})
	want := []int{1, 3, 2, 0, 4}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("OrderByCostDesc = %v, want %v", got, want)
		}
	}
}

// TestMapLowestIndexError: with several failing cases, the reported error
// is the lowest-index one — what a sequential run would have hit first —
// regardless of completion order.
func TestMapLowestIndexError(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		_, err := Map(20, 4, func(i int) (int, error) {
			if i%2 == 1 {
				return 0, fmt.Errorf("case %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "case 1 failed" {
			t.Fatalf("trial %d: err = %v, want case 1 failed", trial, err)
		}
	}
}

// TestMapPanicPropagation: a panicking case re-raises in the caller with
// the lowest panicking index named.
func TestMapPanicPropagation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic propagated")
		}
		s := fmt.Sprint(r)
		if !strings.Contains(s, "case 2 panicked") || !strings.Contains(s, "kaboom") {
			t.Fatalf("panic = %q, want case 2 named with original value", s)
		}
	}()
	Map(8, 3, func(i int) (int, error) {
		if i >= 2 {
			panic("kaboom")
		}
		return i, nil
	})
}

// TestMapEdgeCases: empty input, single case, more workers than cases.
func TestMapEdgeCases(t *testing.T) {
	if out, err := Map(0, 4, func(i int) (int, error) { return 0, nil }); err != nil || out != nil {
		t.Fatalf("n=0: out=%v err=%v, want nil,nil", out, err)
	}
	out, err := Map(1, 16, func(i int) (string, error) { return "only", nil })
	if err != nil || len(out) != 1 || out[0] != "only" {
		t.Fatalf("n=1: out=%v err=%v", out, err)
	}
}
