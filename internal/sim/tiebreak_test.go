package sim

import (
	"fmt"
	"testing"
)

// spawnTied spawns n processes whose initial wakeups are all scheduled at
// t=0 — a guaranteed tie — and records the order they first run in.
func spawnTied(eng *Engine, n int, order *[]int) {
	for i := 0; i < n; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("tied%d", i), func(p *Proc) {
			*order = append(*order, i)
		})
	}
}

func runOrder(t *testing.T, tb TieBreak, n int) []int {
	t.Helper()
	eng := NewEngine()
	eng.SetTieBreak(tb)
	var order []int
	spawnTied(eng, n, &order)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("ran %d of %d processes", len(order), n)
	}
	return order
}

func TestTieBreakFIFOMatchesDefault(t *testing.T) {
	def := runOrder(t, nil, 6)
	fifo := runOrder(t, FIFO(), 6)
	for i := range def {
		if def[i] != i || fifo[i] != i {
			t.Fatalf("default %v fifo %v, want ascending", def, fifo)
		}
	}
}

func TestTieBreakLIFOReverses(t *testing.T) {
	order := runOrder(t, LIFO(), 6)
	for i, v := range order {
		if v != len(order)-1-i {
			t.Fatalf("LIFO order %v, want exact reversal", order)
		}
	}
}

func TestTieBreakSeededIsReplayable(t *testing.T) {
	a := runOrder(t, Seeded(42), 8)
	b := runOrder(t, Seeded(42), 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 not replayable: %v vs %v", a, b)
		}
	}
	// Different seeds should (for this seed pair) pick different orders.
	c := runOrder(t, Seeded(43), 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Logf("seeds 42 and 43 coincided (legal but unlucky): %v", a)
	}
}

func TestTieBreakPreservesClockMonotonicity(t *testing.T) {
	eng := NewEngine()
	eng.SetTieBreak(Seeded(7))
	last := -1.0
	eng.SetEventHook(func(tm float64, _ *Proc) {
		if tm < last {
			t.Errorf("clock went backwards: %g -> %g", last, tm)
		}
		last = tm
	})
	for i := 0; i < 5; i++ {
		eng.Spawn("p", func(p *Proc) {
			for k := 0; k < 10; k++ {
				p.Sleep(0.5)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if last < 0 {
		t.Fatal("event hook never ran")
	}
}

func TestLiveProcsReportsBlocked(t *testing.T) {
	eng := NewEngine()
	g := new(Gate)
	eng.Spawn("stuck", func(p *Proc) { p.Wait(g) })
	err := eng.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if eng.Live() != 1 {
		t.Fatalf("Live() = %d, want 1", eng.Live())
	}
	procs := eng.LiveProcs()
	if len(procs) != 1 {
		t.Fatalf("LiveProcs() = %v, want one entry", procs)
	}
}

func TestResourceAudit(t *testing.T) {
	r := NewResource("x")
	var got [][3]float64
	r.Audit = func(ready, start, done float64) { got = append(got, [3]float64{ready, start, done}) }
	r.Reserve(0, 2)
	r.Reserve(1, 3) // queues behind the first: starts at 2
	if len(got) != 2 {
		t.Fatalf("audit saw %d reservations, want 2", len(got))
	}
	if got[1][1] != 2 || got[1][2] != 5 {
		t.Fatalf("second reservation audited as %v, want start 2 done 5", got[1])
	}
}

// dispatchLog runs a body that blocks and wakes every way a process can and
// returns the event hook's "time/ID" sequence. Goroutine processes a, b and
// c cover Sleep(0), a lone sleeper whose wakeup is the earliest event, gate
// Wait/Fire and a Spawn from a running process. Step process s books
// wakeups with WakeAt, parks until c wakes it, spawns a step child from
// inside a step and exits; the child and grandchild spawn in turn, and the
// child hands the exited s's Proc to SpawnStep for the grandchild. With stepsAsGoroutines, s and its
// descendants run as goroutine processes making the equivalent blocking
// calls, which must not change the sequence under any policy.
func dispatchLog(t *testing.T, tb TieBreak, stepsAsGoroutines bool) []string {
	t.Helper()
	e := NewEngine()
	e.SetTieBreak(tb)
	var log []string
	e.SetEventHook(func(tm float64, p *Proc) { log = append(log, fmt.Sprintf("%g/%d", tm, p.ID)) })
	g, g2 := new(Gate), new(Gate)
	e.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(1)
		p.Sleep(0)    // alone at t=1
		p.Sleep(0.25) // lone sleeper: its wakeup is the earliest event
		g.Fire()
	})
	e.Spawn("b", func(p *Proc) {
		p.Wait(g)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(0)
			c.Sleep(0.5)
		})
		p.Wait(g2)
		p.Sleep(0)
	})
	var wakeS func()
	e.Spawn("c", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(2)
		g2.Fire()
		wakeS()
		p.Sleep(0) // tied with b's and s's wakeups
	})
	if stepsAsGoroutines {
		gs := new(Gate)
		wakeS = gs.Fire
		e.Spawn("s", func(p *Proc) {
			p.Sleep(0)
			p.Sleep(1)
			p.Wait(gs)
			e.Spawn("s-child", func(c *Proc) {
				c.Sleep(0.5)
				e.Spawn("s-grandchild", func(*Proc) {})
			})
		})
	} else {
		s := new(Proc)
		e.SpawnStep(s, "s", script(
			func(p *Proc) { p.WakeAt(p.Now()) },
			func(p *Proc) { p.WakeAt(p.Now() + 1) },
			func(*Proc) {}, // parks: no wakeup booked until c's WakeAt
			func(*Proc) {
				e.SpawnStep(new(Proc), "s-child", script(
					func(c *Proc) { c.WakeAt(c.Now() + 0.5) },
					func(*Proc) { e.SpawnStep(s, "s-grandchild", script(func(*Proc) {})) },
				))
			},
		))
		wakeS = func() { s.WakeAt(e.Now()) }
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

// script returns a step function that runs steps[i] on the process's i-th
// event and exits after the last one.
func script(steps ...func(p *Proc)) func(p *Proc) {
	i := 0
	return func(p *Proc) {
		steps[i](p)
		if i++; i == len(steps) {
			p.Exit()
		}
	}
}

// TestDispatchPathsMatchAcrossPolicies pins the hook sequence of every
// dispatch path and requires FIFO to reproduce the no-policy schedule
// exactly, self-wakes dispatched inline included. Under every policy, step
// processes must produce the same sequence as goroutine processes making
// the equivalent blocking calls.
func TestDispatchPathsMatchAcrossPolicies(t *testing.T) {
	const want = "[0/0 0/1 0/2 0/3 0/0 0/2 0/3 1/0 1/3 1/0 1.25/0 1.25/1 1.25/4 1.25/4 1.75/4 2/2 2/1 2/3 2/2 2/1 2/5 2.5/5 2.5/6]"
	def := fmt.Sprint(dispatchLog(t, nil, false))
	fifo := fmt.Sprint(dispatchLog(t, FIFO(), false))
	if def != want {
		t.Errorf("no policy: hook sequence\n%s\nwant\n%s", def, want)
	}
	if fifo != def {
		t.Errorf("FIFO hook sequence\n%s\ndiffers from no policy\n%s", fifo, def)
	}
	if gor := fmt.Sprint(dispatchLog(t, nil, true)); gor != def {
		t.Errorf("no policy: step processes dispatched\n%s\ngoroutine processes\n%s", def, gor)
	}
	seeded := func(seed int64) func() TieBreak { return func() TieBreak { return Seeded(seed) } }
	names := []string{"fifo", "lifo", "seeded 1", "seeded 2", "seeded 3"}
	for i, policy := range []func() TieBreak{FIFO, LIFO, seeded(1), seeded(2), seeded(3)} {
		steps := fmt.Sprint(dispatchLog(t, policy(), false))
		gor := fmt.Sprint(dispatchLog(t, policy(), true))
		if steps != gor {
			t.Errorf("%s: step processes dispatched\n%s\ngoroutine processes\n%s", names[i], steps, gor)
		}
	}
}

// TestLIFOSleepZeroRunsInline checks that a process doing Sleep(0) among
// tied peers is the LIFO pick (its wakeup is the newest) and so resumes next,
// before any peer runs, on the inline self-wake path.
func TestLIFOSleepZeroRunsInline(t *testing.T) {
	e := NewEngine()
	e.SetTieBreak(LIFO())
	var ran, hook []int
	e.SetEventHook(func(_ float64, p *Proc) { hook = append(hook, p.ID) })
	for i := 0; i < 3; i++ {
		e.Spawn("tied", func(p *Proc) {
			ran = append(ran, p.ID)
			p.Sleep(0)
			ran = append(ran, p.ID)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	const want = "[2 2 1 1 0 0]"
	if fmt.Sprint(ran) != want || fmt.Sprint(hook) != want {
		t.Fatalf("LIFO ran %v with hook sequence %v, want %s for both", ran, hook, want)
	}
}

// TestSetTieBreakSeesQueuedEvents installs LIFO after the spawns have booked
// their first events, which with no policy sit on the same-time lane: the
// policy must still see all four as ties.
func TestSetTieBreakSeesQueuedEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	spawnTied(e, 4, &order)
	e.SetTieBreak(LIFO())
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[3 2 1 0]" {
		t.Fatalf("LIFO installed after the spawns ran %s, want [3 2 1 0]", got)
	}
}

// TestSetTieBreakMidRun pins the hook's (t, ID) sequence when the policy
// changes mid-run. Process 3 installs LIFO at t=0 while the Sleep(0) wakeups
// of processes 0-2 and the first event of process 4 are queued; process 4
// removes it at t=1 while the t=1 wakeups of processes 0-3 are queued, and
// then sleeps 0 itself, so its wakeup is booked after theirs. want was
// generated by an engine with no same-time lane, which kept every event on
// the heap.
func TestSetTieBreakMidRun(t *testing.T) {
	e := NewEngine()
	var log []string
	e.SetEventHook(func(tm float64, p *Proc) { log = append(log, fmt.Sprintf("%g/%d", tm, p.ID)) })
	for i := 0; i < 3; i++ {
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(0)
			p.Sleep(1)
			p.Sleep(0)
		})
	}
	e.Spawn("lifo", func(p *Proc) {
		e.SetTieBreak(LIFO())
		p.Sleep(0)
		p.Sleep(1)
	})
	e.Spawn("unset", func(p *Proc) {
		p.Sleep(1)
		e.SetTieBreak(nil)
		p.Sleep(0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	const want = "[0/0 0/1 0/2 0/3 0/3 0/2 0/1 0/0 0/4 1/4 1/3 1/2 1/1 1/0 1/4 1/2 1/1 1/0]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("hook sequence\n%s\nwant\n%s", got, want)
	}
}
