package faults

import (
	"reflect"
	"testing"

	"commoverlap/internal/metrics"
	"commoverlap/internal/mpi"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{StragglerFrac: -0.1},
		{StragglerFrac: 1.5},
		{StragglerFrac: 0.5, StragglerFactor: 0.5},
		{DegradedLinkFrac: 0.5, DegradedLinkFactor: 0.9},
		{ChunkLossProb: 1},
		{ChunkLossProb: -0.1},
		{PreemptRate: -1, PreemptMax: 1},
		{PreemptRate: 5, PreemptMax: 0},
		{PausePeriod: 100e-6, PauseDur: 100e-6, StragglerFrac: 0.5, StragglerFactor: 2},
		{MaxRetries: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: New accepted invalid %+v", i, cfg)
		}
	}
	good := []Config{
		{},
		Noise(1, 0),
		Noise(1, 1),
		Noise(1, 2),
		Lossy(1, 0.1),
	}
	for i, cfg := range good {
		if _, err := New(cfg); err != nil {
			t.Errorf("config %d: New rejected valid %+v: %v", i, cfg, err)
		}
	}
}

// noisyRun executes a small but fully representative job — nonblocking
// point-to-point ring, blocking allreduce, and a bulk rendezvous-sized
// exchange — under the given fault config, returning the finish time, the
// installed injector, and the metrics registry.
func noisyRun(t *testing.T, cfg Config) (float64, *Injector, *metrics.Registry) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := simnet.New(eng, simnet.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(net, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := &metrics.Registry{}
	w.SetMetrics(reg)
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj.Install(w)
	var finish float64
	w.Launch(func(p *mpi.Proc) {
		c := p.World()
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		// Eager-sized nonblocking ring.
		sreq := c.Isend(next, 7, mpi.Phantom(8<<10))
		rreq := c.Irecv(prev, 7, mpi.Phantom(8<<10))
		sreq.Wait()
		rreq.Wait()
		// Rendezvous-sized exchange with the partner rank.
		partner := c.Rank() ^ 1
		big := mpi.Phantom(1 << 20)
		c.Sendrecv(partner, 9, big, partner, 9, big)
		c.Allreduce(mpi.Phantom(64<<10), mpi.OpSum)
		if c.Rank() == 0 {
			finish = p.Now()
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
	if finish == 0 {
		finish = eng.Now()
	}
	return finish, inj, reg
}

// TestSameSeedIdenticalRuns is the core determinism property: two runs of
// the same job under the same fault seed finish at the identical virtual
// time with identical fault logs, straggler sets, and metric snapshots.
func TestSameSeedIdenticalRuns(t *testing.T) {
	cfg := Noise(42, 1.5)
	cfg.ChunkLossProb = 0.05
	t1, i1, r1 := noisyRun(t, cfg)
	t2, i2, r2 := noisyRun(t, cfg)
	if t1 != t2 {
		t.Errorf("same-seed runs finished at %g vs %g", t1, t2)
	}
	if !reflect.DeepEqual(i1.Events(), i2.Events()) {
		t.Errorf("same-seed fault logs differ: %d vs %d events", len(i1.Events()), len(i2.Events()))
	}
	if !reflect.DeepEqual(i1.straggler, i2.straggler) {
		t.Errorf("same-seed straggler sets differ: %v vs %v", i1.straggler, i2.straggler)
	}
	if !reflect.DeepEqual(r1.Snapshot(), r2.Snapshot()) {
		t.Error("same-seed metric snapshots differ")
	}
	if len(i1.Events()) == 0 {
		t.Error("noisy run injected no faults: the test exercises nothing")
	}
}

// TestDifferentSeedDifferentRuns guards against the injector ignoring its
// seed: distinct seeds must perturb distinctly (finish time or fault log).
func TestDifferentSeedDifferentRuns(t *testing.T) {
	cfgA := Noise(1, 1.5)
	cfgB := Noise(2, 1.5)
	tA, iA, _ := noisyRun(t, cfgA)
	tB, iB, _ := noisyRun(t, cfgB)
	if tA == tB && reflect.DeepEqual(iA.Events(), iB.Events()) &&
		reflect.DeepEqual(iA.straggler, iB.straggler) {
		t.Error("different seeds produced identical runs")
	}
}

// TestNoiseSlowsTheJob checks the injector has teeth: the noisy run takes
// strictly longer than the clean one, and the clean preset is a no-op.
func TestNoiseSlowsTheJob(t *testing.T) {
	clean, _, _ := noisyRun(t, Noise(7, 0))
	base, injB, _ := noisyRun(t, Config{})
	if clean != base {
		t.Errorf("Noise(seed, 0) run time %g != zero-config run time %g", clean, base)
	}
	if len(injB.Events()) != 0 {
		t.Errorf("clean run logged %d fault events", len(injB.Events()))
	}
	noisy, inj, _ := noisyRun(t, Noise(7, 2))
	if noisy <= clean {
		t.Errorf("noisy run (%g s) not slower than clean (%g s)", noisy, clean)
	}
	if n := chosen(inj.straggler); n != 1 { // round(0.25 * 4 nodes)
		t.Errorf("%d straggler nodes (%v), want exactly 1 of 4", n, inj.straggler)
	}
	if n := chosen(inj.degraded); n != 1 {
		t.Errorf("%d degraded links (%v), want exactly 1 of 4", n, inj.degraded)
	}
}

// chosen counts the nodes a selection mask picks.
func chosen(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// TestLossyDeliversEverything checks the retransmission guarantee: under
// heavy transient loss the job still completes cleanly (CheckClean inside
// noisyRun verifies no payload was dropped) and losses were actually
// injected and repaired.
func TestLossyDeliversEverything(t *testing.T) {
	_, inj, reg := noisyRun(t, Lossy(3, 0.3))
	losses := reg.Value("faults.losses", "")
	if losses == 0 {
		t.Fatal("30% loss probability injected no losses")
	}
	if got := reg.Value("net.chunks.retrans", ""); got != losses {
		t.Errorf("retransmissions %g != losses %g: a lost chunk was not repaired", got, losses)
	}
	for _, e := range inj.Events() {
		if e.Kind != "loss" {
			t.Errorf("Lossy config injected a %q event", e.Kind)
		}
	}
}

// TestMaxRetriesForcesSuccess pins the no-silent-drop guarantee at the
// model level: after MaxRetries lost attempts, ChunkFate reports success
// regardless of the draw.
func TestMaxRetriesForcesSuccess(t *testing.T) {
	cfg := Lossy(5, 0.99)
	cfg.MaxRetries = 3
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj.w = &mpi.World{} // record() needs a world for timestamps; Metrics is nil-safe
	for attempt := 0; attempt < 3; attempt++ {
		if lost, timeout := inj.ChunkFate(0, 1, attempt); lost && timeout <= 0 {
			t.Errorf("attempt %d: lost with non-positive timeout %g", attempt, timeout)
		}
	}
	if lost, _ := inj.ChunkFate(0, 1, 3); lost {
		t.Error("attempt at MaxRetries still lost: chunks can drop forever")
	}
	// Exponential backoff: timeouts grow with the attempt index.
	inj2, _ := New(Lossy(5, 0.999999))
	inj2.w = &mpi.World{}
	var prev float64
	for attempt := 0; attempt < 4; attempt++ {
		lost, timeout := inj2.ChunkFate(0, 1, attempt)
		if !lost {
			continue // rare survival draw; backoff shape still checked on the rest
		}
		if timeout <= prev {
			t.Errorf("attempt %d: timeout %g did not back off beyond %g", attempt, timeout, prev)
		}
		prev = timeout
	}
}

func TestInstallTwicePanics(t *testing.T) {
	eng := sim.NewEngine()
	net, _ := simnet.New(eng, simnet.DefaultConfig(2))
	w, _ := mpi.NewWorld(net, 2, nil)
	inj, err := New(Noise(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	inj.Install(w)
	defer func() {
		if recover() == nil {
			t.Error("second Install did not panic")
		}
	}()
	inj.Install(w)
}
