package mpi

import (
	"strings"
	"testing"

	"commoverlap/internal/metrics"
	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
	"commoverlap/internal/trace"
)

// TestOverlappedIbcastTraceSpans is the regression test for the
// span-collision panic: tracing two concurrently in-flight Ibcast parts
// (duplicated communicators, same label — exactly what an N_DUP overlap
// kernel emits) used to panic in the recorder with "span already open".
// The two spans must come back as distinct, genuinely overlapping events
// with distinct async IDs in the Chrome export.
func TestOverlappedIbcastTraceSpans(t *testing.T) {
	var rec trace.Recorder
	runJob(t, 4, 4, func(pr *Proc) {
		comms := pr.World().DupN(2)
		pr.World().Barrier()
		b1, b2 := Phantom(2<<20), Phantom(2<<20)
		start1 := pr.Now()
		req1 := comms[0].Ibcast(0, b1)
		// The second part is posted while the first is still in flight.
		start2 := pr.Now()
		req2 := comms[1].Ibcast(0, b2)
		req1.Wait()
		if pr.Rank() == 0 {
			rec.Span(0, "ibcast 2MB", start1, pr.Now())
		}
		req2.Wait()
		if pr.Rank() == 0 {
			rec.Span(0, "ibcast 2MB", start2, pr.Now())
		}
	})
	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(evs), evs)
	}
	for _, e := range evs {
		if e.Label != "ibcast 2MB" || e.Rank != 0 || e.End <= e.Start {
			t.Errorf("bad span event %+v", e)
		}
	}
	// The parts genuinely overlapped in virtual time (that is the point of
	// posting on duplicated communicators).
	if evs[1].Start >= evs[0].End {
		t.Errorf("spans did not overlap: [%g,%g] then [%g,%g]",
			evs[0].Start, evs[0].End, evs[1].Start, evs[1].End)
	}
	var sb strings.Builder
	if err := rec.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChromeTrace(strings.NewReader(sb.String())); err != nil {
		t.Errorf("chrome export of overlapped spans invalid: %v", err)
	}
}

// TestWorldMetricsFeed checks the World/Net metrics plumbing on a real job:
// eager and rendezvous paths, collectives, parks and wakes all land in the
// registry, deterministically.
func TestWorldMetricsFeed(t *testing.T) {
	run := func() string {
		reg := &metrics.Registry{}
		eng := sim.NewEngine()
		net, err := simnet.New(eng, simnet.DefaultConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(net, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.SetMetrics(reg)
		w.Launch(func(pr *Proc) {
			c := pr.World()
			small, big := Phantom(64), Phantom(1<<20)
			if pr.Rank() == 0 {
				c.Send(1, 1, small)
				c.Send(1, 2, big)
			} else if pr.Rank() == 1 {
				c.Recv(0, 1, small)
				c.Recv(0, 2, big)
			}
			c.Iallreduce(Phantom(4096), OpSum).Wait()
			RunActive(pr, c, pr.Rank()%2 == 0, 1e-3, func() {})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		reg.WriteText(&sb)
		return sb.String()
	}
	out := run()
	for _, want := range []string{
		"mpi.msgs{eager}", "mpi.msgs{rndv}", "mpi.coll{iallreduce}",
		"mpi.coll{ibarrier}", "mpi.parks", "mpi.wakes", "mpi.poll.spins",
		"net.wire.bytes", "net.chunks",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if again := run(); again != out {
		t.Errorf("metrics feed not deterministic:\n%s\nvs\n%s", out, again)
	}
}
