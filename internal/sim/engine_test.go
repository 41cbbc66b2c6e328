package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestSingleProcSleep(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Spawn("a", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(1.5)
		times = append(times, p.Now())
		p.Sleep(0)
		times = append(times, p.Now())
		p.Sleep(2.5)
		times = append(times, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 1.5, 4.0}
	if len(times) != len(want) {
		t.Fatalf("got %v want %v", times, want)
	}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Errorf("times[%d] = %g want %g", i, times[i], want[i])
		}
	}
}

func TestInterleavingOrder(t *testing.T) {
	e := NewEngine()
	var log []string
	emit := func(name string, p *Proc) {
		log = append(log, fmt.Sprintf("%s@%g", name, p.Now()))
	}
	e.Spawn("a", func(p *Proc) {
		emit("a", p)
		p.Sleep(2)
		emit("a", p)
		p.Sleep(2)
		emit("a", p)
	})
	e.Spawn("b", func(p *Proc) {
		emit("b", p)
		p.Sleep(3)
		emit("b", p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@0", "b@0", "a@2", "b@3", "a@4"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", log, want)
	}
}

func TestFIFOTiebreakAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(1)
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("spawn order not preserved at equal times: %v", order)
		}
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	e := NewEngine()
	var childTime float64 = -1
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5)
		e.Spawn("child", func(c *Proc) {
			childTime = c.Now()
			c.Sleep(1)
		})
		p.Sleep(10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 5 {
		t.Errorf("child started at %g want 5", childTime)
	}
}

func TestGateWaitBeforeFire(t *testing.T) {
	e := NewEngine()
	g := new(Gate)
	var wokeAt float64 = -1
	e.Spawn("waiter", func(p *Proc) {
		p.Wait(g)
		wokeAt = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(3)
		g.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 3 {
		t.Errorf("woke at %g want 3", wokeAt)
	}
	if !g.Fired() {
		t.Error("gate not fired")
	}
}

func TestGateWaitAfterFire(t *testing.T) {
	e := NewEngine()
	g := new(Gate)
	var wokeAt float64 = -1
	e.Spawn("firer", func(p *Proc) {
		g.Fire()
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(7)
		p.Wait(g) // already fired: no block
		wokeAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 7 {
		t.Errorf("woke at %g want 7", wokeAt)
	}
}

// TestGateDoubleFireIsNoop fires a gate three times, twice at one instant,
// and requires its waiter to be woken once: the event hook sees the
// waiter's first event and its one wakeup, and nothing else.
func TestGateDoubleFireIsNoop(t *testing.T) {
	e := NewEngine()
	g := new(Gate)
	var w *Proc
	n := 0
	e.SetEventHook(func(_ float64, p *Proc) {
		if p == w {
			n++
		}
	})
	w = e.Spawn("waiter", func(p *Proc) { p.Wait(g) })
	e.Spawn("firer", func(p *Proc) {
		g.Fire()
		g.Fire()
		p.Sleep(1)
		g.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("waiter dispatched %d times, want 2", n)
	}
}

// TestGateResetRearms checks that a reset gate blocks its next waiter until
// it fires again.
func TestGateResetRearms(t *testing.T) {
	e := NewEngine()
	g := new(Gate)
	var wokeAt float64 = -1
	e.Spawn("a", func(p *Proc) {
		g.Fire()
		g.Reset()
		e.Spawn("waiter", func(q *Proc) {
			q.Wait(g)
			wokeAt = q.Now()
		})
		p.Sleep(2)
		g.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 2 {
		t.Errorf("woke at %g want 2", wokeAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	g := new(Gate)
	e.Spawn("stuck", func(p *Proc) {
		p.Wait(g) // never fired
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestResourceFIFO(t *testing.T) {
	r := NewResource("wire")
	s1, d1 := r.Reserve(0, 10)
	if s1 != 0 || d1 != 10 {
		t.Errorf("first: [%g,%g] want [0,10]", s1, d1)
	}
	s2, d2 := r.Reserve(3, 5) // queued behind first
	if s2 != 10 || d2 != 15 {
		t.Errorf("second: [%g,%g] want [10,15]", s2, d2)
	}
	s3, d3 := r.Reserve(100, 1) // idle gap
	if s3 != 100 || d3 != 101 {
		t.Errorf("third: [%g,%g] want [100,101]", s3, d3)
	}
	if r.BusyTime() != 16 {
		t.Errorf("busy %g want 16", r.BusyTime())
	}
}

func TestResourceNegativeDuration(t *testing.T) {
	r := NewResource("x")
	_, d := r.Reserve(5, -1)
	if d != 5 {
		t.Errorf("negative duration should clamp to 0, done=%g", d)
	}
}

// Property: for any sequence of (ready, dur) reservations with nondecreasing
// ready times, intervals never overlap and starts are nondecreasing.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("p")
		ready, prevDone := 0.0, 0.0
		for i := 0; i < int(n%64)+1; i++ {
			ready += rng.Float64()
			dur := rng.Float64()
			start, done := r.Reserve(ready, dur)
			if start < prevDone || start < ready || done != start+dur {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: virtual clock is monotone for any random sleep workload, and two
// identical runs produce identical event logs (determinism).
func TestDeterminismProperty(t *testing.T) {
	runOnce := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var log []string
		last := -1.0
		for i := 0; i < 8; i++ {
			i := i
			delays := make([]float64, 5)
			for j := range delays {
				delays[j] = rng.Float64() * 10
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for _, d := range delays {
					p.Sleep(d)
					if p.Now() < last {
						panic("clock went backwards")
					}
					last = p.Now()
					log = append(log, fmt.Sprintf("%d@%.9f", i, p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			panic(err)
		}
		return log
	}
	f := func(seed int64) bool {
		a, b := runOnce(seed), runOnce(seed)
		return fmt.Sprint(a) == fmt.Sprint(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSleepNegativeClamp(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("negative sleep moved clock to %g", p.Now())
		}
		p.SleepUntil(-3)
		if p.Now() != 0 {
			t.Errorf("past SleepUntil moved clock to %g", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsStress(t *testing.T) {
	e := NewEngine()
	const n = 2000
	count := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(float64(i % 17))
			count++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("count=%d want %d", count, n)
	}
}

// TestRunReleasesBlockedGoroutines checks that a Run ending in deadlock
// leaves no goroutine behind: the blocked processes and the pooled goroutine
// of a finished one all exit, blocked bodies run their deferred calls in
// Proc.ID order, and Live/LiveProcs still describe the deadlock.
func TestRunReleasesBlockedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	g := new(Gate)
	var exited []int
	for i := 0; i < 3; i++ {
		e.Spawn("stuck", func(p *Proc) {
			defer func() { exited = append(exited, p.ID) }()
			p.Wait(g) // never fired
		})
	}
	e.Spawn("done", func(p *Proc) { p.Sleep(1) })
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
	if e.Live() != 3 || len(e.LiveProcs()) != 3 {
		t.Fatalf("Live() = %d, LiveProcs() = %v, want the 3 blocked processes", e.Live(), e.LiveProcs())
	}
	if after := goroutinesSettle(before); after > before {
		t.Fatalf("goroutines grew across a deadlocked Run: %d -> %d", before, after)
	}
	if fmt.Sprint(exited) != "[0 1 2]" {
		t.Fatalf("blocked bodies unwound in order %v, want [0 1 2]", exited)
	}
}

func TestRunTwicePanics(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	e.Run()
}

func TestSpawnAfterRunPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Spawn after Run did not panic")
		}
	}()
	e.Spawn("late", func(p *Proc) {})
}

func TestWaitAllOrderIndependent(t *testing.T) {
	e := NewEngine()
	g1, g2, g3 := new(Gate), new(Gate), new(Gate)
	var at float64
	e.Spawn("waiter", func(p *Proc) {
		for _, g := range []*Gate{g3, g1, g2} { // not the firing order
			p.Wait(g)
		}
		at = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(1)
		g2.Fire()
		p.Sleep(1)
		g3.Fire()
		p.Sleep(1)
		g1.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3 {
		t.Errorf("waits finished at %g want 3", at)
	}
}

// goroutinesSettle returns the goroutine count once it is back down to
// before, or after a second. A goroutine the engine released can still be
// exiting after its last send, and on a loaded host its thread may not run
// for many scheduler rounds; a leaked goroutine never exits, so it still
// fails the caller.
func goroutinesSettle(before int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
