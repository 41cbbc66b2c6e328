package sim_test

import (
	"fmt"

	"commoverlap/internal/sim"
)

// Processes run cooperatively against a virtual clock: only Sleep, gate
// waits and resource reservations advance time.
func ExampleEngine() {
	eng := sim.NewEngine()
	eng.Spawn("worker", func(p *sim.Proc) {
		p.Sleep(1.5)
		fmt.Printf("worker at t=%.1fs\n", p.Now())
	})
	eng.Spawn("late", func(p *sim.Proc) {
		p.Sleep(3)
		fmt.Printf("late at t=%.1fs\n", p.Now())
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	// Output:
	// worker at t=1.5s
	// late at t=3.0s
}

// Gates are one-shot signals connecting processes.
func ExampleGate() {
	eng := sim.NewEngine()
	ready := new(sim.Gate)
	eng.Spawn("consumer", func(p *sim.Proc) {
		p.Wait(ready)
		fmt.Printf("woke at t=%.0fs\n", p.Now())
	})
	eng.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(2)
		ready.Fire()
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	// Output: woke at t=2s
}

// Resources serialize access with FIFO next-free-time semantics — the
// building block of the network model.
func ExampleResource() {
	r := sim.NewResource("wire")
	start1, done1 := r.Reserve(0, 10)
	start2, done2 := r.Reserve(3, 5) // wants t=3, but queues behind job 1
	fmt.Println(start1, done1, start2, done2)
	// Output: 0 10 10 15
}
