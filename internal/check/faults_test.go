package check

import (
	"bytes"
	"reflect"
	"testing"

	"commoverlap/internal/faults"
	"commoverlap/internal/trace"
)

// TestFaultProfilesPass drives representative scenarios through every fault
// profile under the default and one seeded-random schedule: perturbation
// must never break an invariant — delivery included — only stretch time.
func TestFaultProfilesPass(t *testing.T) {
	scens := []Scenario{}
	for _, name := range []string{"p2p-burst", "p2p-cross", "allreduce", "pipeline-ndup", "parked-ppn"} {
		sc, ok := Find(name)
		if !ok {
			t.Fatalf("scenario %q missing from catalog", name)
		}
		scens = append(scens, sc)
	}
	sum := ExploreFaults(scens, FaultProfiles(), Policies(), 2, 1, 0, nil)
	if len(sum.Failures) > 0 {
		for _, f := range sum.Failures {
			t.Errorf("%s: %d violation(s), first: %s", f.Schedule(), len(f.Violations), f.Violations[0])
			for _, cmd := range f.Repro() {
				t.Logf("  repro: %s", cmd)
			}
		}
	}
	if sum.Runs == 0 {
		t.Fatal("ExploreFaults ran nothing")
	}
}

// TestFaultDeterminism is the seed-replay guarantee end to end: two runs of
// the same scenario under the same fault seed and schedule produce a
// byte-identical exported message trace, identical fault logs and identical
// schedule fingerprints.
func TestFaultDeterminism(t *testing.T) {
	sc, ok := Find("pipeline-ndup")
	if !ok {
		t.Fatal("pipeline-ndup missing")
	}
	cfg := faults.Noise(99, 1.5)
	cfg.ChunkLossProb = 0.05

	export := func() (Report, []byte) {
		r := RunScenario(sc, Options{Faults: &cfg})
		if r.Failed() {
			t.Fatalf("faulted run violated invariants: %v", r.Violations)
		}
		var msgs bytes.Buffer
		if err := trace.WriteChromeTrace(&msgs, r.Log.ChromeEvents()); err != nil {
			t.Fatal(err)
		}
		return r, msgs.Bytes()
	}

	r1, msgs1 := export()
	r2, msgs2 := export()

	if r1.FinalTime != r2.FinalTime || r1.Events != r2.Events || r1.Messages != r2.Messages {
		t.Errorf("fingerprints differ: (%g, %d, %d) vs (%g, %d, %d)",
			r1.FinalTime, r1.Events, r1.Messages, r2.FinalTime, r2.Events, r2.Messages)
	}
	if !bytes.Equal(msgs1, msgs2) {
		t.Error("same-seed message traces are not byte-identical")
	}
	if !reflect.DeepEqual(r1.Faults.Events(), r2.Faults.Events()) {
		t.Error("same-seed fault logs differ")
	}
	if len(r1.Faults.Events()) == 0 {
		t.Error("noisy run injected no faults; determinism test is vacuous")
	}
	if err := trace.ValidateChromeTrace(bytes.NewReader(msgs1)); err != nil {
		t.Errorf("message trace invalid: %v", err)
	}

	// The fault layer must actually perturb the schedule relative to clean.
	clean := RunScenario(sc, Options{})
	if clean.FinalTime == r1.FinalTime {
		t.Error("faulted run finished at the clean run's time; injector had no effect")
	}
}

// TestCheckDeliveryCatchesLoss unit-tests the delivery invariant against
// hand-built traces for each failure mode the retransmission layer could
// introduce: a swallowed payload (posted, never admitted), a duplicated
// admission, and an in-flight size corruption.
func TestCheckDeliveryCatchesLoss(t *testing.T) {
	mk := func(events ...trace.MsgEvent) *trace.MsgLog {
		var log trace.MsgLog
		for _, e := range events {
			log.Add(e)
		}
		return &log
	}
	post := trace.MsgEvent{Kind: trace.MsgPost, Ctx: 0, Src: 0, Dst: 1, Tag: 5, Seq: 0, Bytes: 64}
	admit := post
	admit.Kind = trace.MsgAdmit
	match := post
	match.Kind = trace.MsgMatch

	cases := []struct {
		name string
		log  *trace.MsgLog
		bad  bool
	}{
		{"clean", mk(post, admit, match), false},
		{"lost", mk(post), true},
		{"never-matched", mk(post, admit), true},
		{"dup-admit", mk(post, admit, admit, match), true},
		{"orphan-match", mk(admit, match), true},
		{"corrupted", mk(post, trace.MsgEvent{Kind: trace.MsgAdmit, Ctx: 0, Src: 0, Dst: 1, Tag: 5, Seq: 0, Bytes: 32}, match), true},
	}
	for _, tc := range cases {
		col := &collector{}
		checkDelivery(tc.log, col)
		if got := len(col.violations) > 0; got != tc.bad {
			t.Errorf("%s: violations = %v, want failure %v", tc.name, col.violations, tc.bad)
		}
	}
}
