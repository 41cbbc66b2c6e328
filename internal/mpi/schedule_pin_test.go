package mpi

import (
	"fmt"
	"strings"
	"testing"

	"commoverlap/internal/sim"
	"commoverlap/internal/simnet"
	"commoverlap/internal/trace"
)

// pinnedSchedules is the fingerprint of every collective schedule: one line
// per (collective, algorithm, blocking or nonblocking call, world shape,
// payload class) with the run's event count, protocol-record count and final
// virtual time, the triple internal/check's fingerprints.golden uses. "6x3"
// is 6 ranks two per node, "8x8" 8 ranks one per node; "eager" and "rndv"
// payloads sit either side of the eager limit, and for the two
// block-per-rank collectives they size each rank's block.
const pinnedSchedules = `
bcast binomial blocking 6x3 eager events=57 msgs=15 t=1.8160670250896057e-05
bcast binomial nonblocking 6x3 eager events=69 msgs=15 t=1.8160670250896057e-05
bcast binomial blocking 6x3 rndv events=157 msgs=15 t=0.00047762788960573483
bcast binomial nonblocking 6x3 rndv events=169 msgs=15 t=0.00047762788960573483
bcast binomial blocking 8x8 eager events=79 msgs=21 t=2.1803283154121862e-05
bcast binomial nonblocking 8x8 eager events=95 msgs=21 t=2.1803283154121862e-05
bcast binomial blocking 8x8 rndv events=219 msgs=21 t=0.00049996191541218642
bcast binomial nonblocking 8x8 rndv events=235 msgs=21 t=0.00049996191541218642
bcast scatter-allgather blocking 6x3 eager events=297 msgs=105 t=2.9801315412186351e-05
bcast scatter-allgather nonblocking 6x3 eager events=309 msgs=105 t=2.9801315412186351e-05
bcast scatter-allgather blocking 6x3 rndv events=742 msgs=105 t=0.00061035310250896031
bcast scatter-allgather nonblocking 6x3 rndv events=754 msgs=105 t=0.00061035310250896031
bcast scatter-allgather blocking 8x8 eager events=527 msgs=189 t=3.7796250896057323e-05
bcast scatter-allgather nonblocking 8x8 eager events=543 msgs=189 t=3.7796250896057323e-05
bcast scatter-allgather blocking 8x8 rndv events=1311 msgs=189 t=0.00063414237992831524
bcast scatter-allgather nonblocking 8x8 rndv events=1327 msgs=189 t=0.00063414237992831524
bcast auto blocking 6x3 eager events=57 msgs=15 t=1.8160670250896057e-05
bcast auto nonblocking 6x3 eager events=69 msgs=15 t=1.8160670250896057e-05
bcast auto blocking 6x3 rndv events=742 msgs=105 t=0.00061035310250896031
bcast auto nonblocking 6x3 rndv events=754 msgs=105 t=0.00061035310250896031
bcast auto blocking 8x8 eager events=79 msgs=21 t=2.1803283154121862e-05
bcast auto nonblocking 8x8 eager events=95 msgs=21 t=2.1803283154121862e-05
bcast auto blocking 8x8 rndv events=1311 msgs=189 t=0.00063414237992831524
bcast auto nonblocking 8x8 rndv events=1327 msgs=189 t=0.00063414237992831524
reduce binomial blocking 6x3 eager events=61 msgs=15 t=2.6645559139784948e-05
reduce binomial nonblocking 6x3 eager events=73 msgs=15 t=2.6645559139784948e-05
reduce binomial blocking 6x3 rndv events=162 msgs=15 t=0.001464942958147229
reduce binomial nonblocking 6x3 rndv events=174 msgs=15 t=0.001464942958147229
reduce binomial blocking 8x8 eager events=86 msgs=21 t=3.1488172043010752e-05
reduce binomial nonblocking 8x8 eager events=102 msgs=21 t=3.1488172043010752e-05
reduce binomial blocking 8x8 rndv events=226 msgs=21 t=0.001467492958147229
reduce binomial nonblocking 8x8 rndv events=242 msgs=21 t=0.001467492958147229
reduce rabenseifner blocking 6x3 eager events=136 msgs=42 t=2.7254985938792394e-05
reduce rabenseifner nonblocking 6x3 eager events=148 msgs=42 t=2.7254985938792394e-05
reduce rabenseifner blocking 6x3 rndv events=331 msgs=42 t=0.0012503092777502063
reduce rabenseifner nonblocking 6x3 rndv events=343 msgs=42 t=0.0012503092777502063
reduce rabenseifner blocking 8x8 eager events=292 msgs=93 t=2.4100963606286201e-05
reduce rabenseifner nonblocking 8x8 eager events=308 msgs=93 t=2.4100963606286201e-05
reduce rabenseifner blocking 8x8 rndv events=683 msgs=93 t=0.00088073700578990873
reduce rabenseifner nonblocking 8x8 rndv events=699 msgs=93 t=0.00088073700578990873
reduce auto blocking 6x3 eager events=61 msgs=15 t=2.6645559139784948e-05
reduce auto nonblocking 6x3 eager events=73 msgs=15 t=2.6645559139784948e-05
reduce auto blocking 6x3 rndv events=331 msgs=42 t=0.0012503092777502063
reduce auto nonblocking 6x3 rndv events=343 msgs=42 t=0.0012503092777502063
reduce auto blocking 8x8 eager events=86 msgs=21 t=3.1488172043010752e-05
reduce auto nonblocking 8x8 eager events=102 msgs=21 t=3.1488172043010752e-05
reduce auto blocking 8x8 rndv events=683 msgs=93 t=0.00088073700578990873
reduce auto nonblocking 8x8 rndv events=699 msgs=93 t=0.00088073700578990873
allreduce recdouble blocking 6x3 eager events=120 msgs=36 t=3.4544565591397854e-05
allreduce recdouble nonblocking 6x3 eager events=132 msgs=36 t=3.4544565591397854e-05
allreduce recdouble blocking 6x3 rndv events=362 msgs=36 t=0.00168028344846981
allreduce recdouble nonblocking 6x3 rndv events=374 msgs=36 t=0.00168028344846981
allreduce recdouble blocking 8x8 eager events=232 msgs=72 t=3.1488172043010752e-05
allreduce recdouble nonblocking 8x8 eager events=248 msgs=72 t=3.1488172043010752e-05
allreduce recdouble blocking 8x8 rndv events=712 msgs=72 t=0.0015021582871794872
allreduce recdouble nonblocking 8x8 rndv events=728 msgs=72 t=0.0015021582871794872
allreduce rabenseifner blocking 6x3 eager events=184 msgs=60 t=3.8847050454921426e-05
allreduce rabenseifner nonblocking 6x3 eager events=196 msgs=60 t=3.8847050454921426e-05
allreduce rabenseifner blocking 6x3 rndv events=474 msgs=60 t=0.0013374696837055425
allreduce rabenseifner nonblocking 6x3 rndv events=486 msgs=60 t=0.0013374696837055425
allreduce rabenseifner blocking 8x8 eager events=424 msgs=144 t=2.9546678246484693e-05
allreduce rabenseifner nonblocking 8x8 eager events=440 msgs=144 t=2.9546678246484693e-05
allreduce rabenseifner blocking 8x8 rndv events=1032 msgs=144 t=0.00082558606881720422
allreduce rabenseifner nonblocking 8x8 rndv events=1048 msgs=144 t=0.00082558606881720422
allreduce ring blocking 6x3 eager events=522 msgs=180 t=4.0839144747725389e-05
allreduce ring nonblocking 6x3 eager events=534 msgs=180 t=4.0839144747725389e-05
allreduce ring blocking 6x3 rndv events=1248 msgs=180 t=0.00095352838941273831
allreduce ring nonblocking 6x3 rndv events=1260 msgs=180 t=0.00095352838941273831
allreduce ring blocking 8x8 eager events=968 msgs=336 t=5.2785308519437581e-05
allreduce ring nonblocking 8x8 eager events=984 msgs=336 t=5.2785308519437581e-05
allreduce ring blocking 8x8 rndv events=2312 msgs=336 t=0.0009665665571546735
allreduce ring nonblocking 8x8 rndv events=2328 msgs=336 t=0.0009665665571546735
allreduce bruck blocking 6x3 eager events=120 msgs=36 t=3.7681784946236564e-05
allreduce bruck nonblocking 6x3 eager events=132 msgs=36 t=3.7681784946236564e-05
allreduce bruck blocking 6x3 rndv events=365 msgs=36 t=0.0018496392291149713
allreduce bruck nonblocking 6x3 rndv events=377 msgs=36 t=0.0018496392291149713
allreduce bruck blocking 8x8 eager events=232 msgs=72 t=3.1488172043010752e-05
allreduce bruck nonblocking 8x8 eager events=248 msgs=72 t=3.1488172043010752e-05
allreduce bruck blocking 8x8 rndv events=712 msgs=72 t=0.0015021582871794872
allreduce bruck nonblocking 8x8 rndv events=728 msgs=72 t=0.0015021582871794872
allreduce shift blocking 6x3 eager events=330 msgs=108 t=2.94529834574028e-05
allreduce shift nonblocking 6x3 eager events=342 msgs=108 t=2.94529834574028e-05
allreduce shift blocking 6x3 rndv events=802 msgs=108 t=0.00094032772440033119
allreduce shift nonblocking 6x3 rndv events=814 msgs=108 t=0.00094032772440033119
allreduce shift blocking 8x8 eager events=456 msgs=144 t=2.9546678246484693e-05
allreduce shift nonblocking 8x8 eager events=472 msgs=144 t=2.9546678246484693e-05
allreduce shift blocking 8x8 rndv events=1064 msgs=144 t=0.00082558606881720433
allreduce shift nonblocking 8x8 rndv events=1080 msgs=144 t=0.00082558606881720433
allreduce auto blocking 6x3 eager events=120 msgs=36 t=3.4544565591397854e-05
allreduce auto nonblocking 6x3 eager events=132 msgs=36 t=3.4544565591397854e-05
allreduce auto blocking 6x3 rndv events=474 msgs=60 t=0.0013374696837055425
allreduce auto nonblocking 6x3 rndv events=486 msgs=60 t=0.0013374696837055425
allreduce auto blocking 8x8 eager events=232 msgs=72 t=3.1488172043010752e-05
allreduce auto nonblocking 8x8 eager events=248 msgs=72 t=3.1488172043010752e-05
allreduce auto blocking 8x8 rndv events=1032 msgs=144 t=0.00082558606881720422
allreduce auto nonblocking 8x8 rndv events=1048 msgs=144 t=0.00082558606881720422
barrier - blocking 6x3 none events=132 msgs=54 t=8.6999999999999997e-06
barrier - nonblocking 6x3 none events=144 msgs=54 t=8.6999999999999997e-06
barrier - blocking 8x8 none events=176 msgs=72 t=8.6999999999999997e-06
barrier - nonblocking 8x8 none events=192 msgs=72 t=8.6999999999999997e-06
allgather - blocking 6x3 eager events=252 msgs=90 t=3.5281204301075267e-05
allgather - nonblocking 6x3 eager events=264 msgs=90 t=3.5281204301075267e-05
allgather - blocking 6x3 rndv events=629 msgs=90 t=0.00034235374193548385
allgather - nonblocking 6x3 rndv events=641 msgs=90 t=0.00034235374193548385
allgather - blocking 8x8 eager events=464 msgs=168 t=4.7022623655913985e-05
allgather - nonblocking 8x8 eager events=480 msgs=168 t=4.7022623655913985e-05
allgather - blocking 8x8 rndv events=1136 msgs=168 t=0.00032515745806451619
allgather - nonblocking 8x8 rndv events=1152 msgs=168 t=0.00032515745806451619
reducescatter - blocking 6x3 eager events=282 msgs=90 t=5.401787096774194e-05
reducescatter - nonblocking 6x3 eager events=294 msgs=90 t=5.401787096774194e-05
reducescatter - blocking 6x3 rndv events=650 msgs=90 t=0.00052774893498759308
reducescatter - nonblocking 6x3 rndv events=662 msgs=90 t=0.00052774893498759308
reducescatter - blocking 8x8 eager events=520 msgs=168 t=7.3253956989247312e-05
reducescatter - nonblocking 8x8 eager events=536 msgs=168 t=7.3253956989247312e-05
reducescatter - blocking 8x8 rndv events=1192 msgs=168 t=0.00065274776575682391
reducescatter - nonblocking 8x8 rndv events=1208 msgs=168 t=0.00065274776575682391
`

// pinnedColl is one collective and the algorithm forced for it ("auto"
// leaves the World's switch points to choose).
type pinnedColl struct{ coll, alg string }

// pinnedColls lists every forcible algorithm of the three families, each
// family's auto choice, and the collectives that have a single schedule.
func pinnedColls() []pinnedColl {
	var out []pinnedColl
	for _, fam := range []struct {
		coll string
		algs []string
	}{{"bcast", BcastAlgs()}, {"reduce", ReduceAlgs()}, {"allreduce", AllreduceAlgs()}} {
		for _, alg := range append(fam.algs, "auto") {
			out = append(out, pinnedColl{fam.coll, alg})
		}
	}
	return append(out, pinnedColl{"barrier", "-"}, pinnedColl{"allgather", "-"}, pinnedColl{"reducescatter", "-"})
}

// runPinned runs one collective call on every rank and returns its
// fingerprint line.
func runPinned(pc pinnedColl, nonblocking bool, ranks, nodes int, payload string) (string, error) {
	elems := map[string]int{"eager": 1001, "rndv": 100001}[payload]
	if pc.coll == "allgather" || pc.coll == "reducescatter" {
		elems = map[string]int{"eager": 1001, "rndv": 12501}[payload]
	}
	eng := sim.NewEngine()
	net, err := simnet.New(eng, simnet.DefaultConfig(nodes))
	if err != nil {
		return "", err
	}
	w, err := NewWorld(net, ranks, nil)
	if err != nil {
		return "", err
	}
	if pc.alg != "auto" && pc.alg != "-" {
		switch pc.coll {
		case "bcast":
			w.BcastAlg = pc.alg
		case "reduce":
			w.ReduceAlg = pc.alg
		case "allreduce":
			w.AllreduceAlg = pc.alg
		}
	}
	events, msgs := 0, 0
	eng.SetEventHook(func(float64, *sim.Proc) { events++ })
	w.Probe = func(trace.MsgEvent) { msgs++ }
	const root = 1
	w.Launch(func(p *Proc) {
		c := p.World()
		data := func(n int) Buffer {
			d := make([]float64, n)
			for i := range d {
				d[i] = float64(p.Rank() + i%7)
			}
			return F64(d)
		}
		// call runs the blocking form, or posts the nonblocking one and
		// waits for it.
		call := func(blocking func(), post func() *Request) {
			if nonblocking {
				post().Wait()
			} else {
				blocking()
			}
		}
		switch pc.coll {
		case "bcast":
			buf := data(elems)
			call(func() { c.Bcast(root, buf) }, func() *Request { return c.Ibcast(root, buf) })
		case "reduce":
			send, recv := data(elems), Buffer{}
			if p.Rank() == root {
				recv = F64(make([]float64, elems))
			}
			call(func() { c.Reduce(root, send, recv, OpSum) },
				func() *Request { return c.Ireduce(root, send, recv, OpSum) })
		case "allreduce":
			buf := data(elems)
			call(func() { c.Allreduce(buf, OpSum) }, func() *Request { return c.Iallreduce(buf, OpSum) })
		case "barrier":
			call(c.Barrier, c.Ibarrier)
		case "allgather":
			send, recv := data(elems), make([]Buffer, ranks)
			for i := range recv {
				recv[i] = F64(make([]float64, elems))
			}
			call(func() { c.Allgather(send, recv) }, func() *Request { return c.Iallgather(send, recv) })
		case "reducescatter":
			send, recv := data(ranks*elems), F64(make([]float64, elems))
			call(func() { c.ReduceScatter(send, recv, OpSum) },
				func() *Request { return c.Ireducescatter(send, recv, OpSum) })
		}
	})
	if err := eng.Run(); err != nil {
		return "", err
	}
	if err := w.CheckClean(); err != nil {
		return "", err
	}
	mode := "blocking"
	if nonblocking {
		mode = "nonblocking"
	}
	return fmt.Sprintf("%s %s %s %dx%d %s events=%d msgs=%d t=%.17g",
		pc.coll, pc.alg, mode, ranks, nodes, payload, events, msgs, eng.Now()), nil
}

// TestCollectiveSchedulesPinned pins every collective schedule bit for bit,
// so a change to the order of one algorithm's posts, waits or CPU charges
// fails on a line that names the algorithm, not only on whichever checker
// scenario happens to run it. The checker catalog runs recursive doubling
// only on 4 ranks with small eager payloads, for instance: charging its
// combine before its send has completed moves its 6-rank eager lines here.
func TestCollectiveSchedulesPinned(t *testing.T) {
	var got []string
	for _, pc := range pinnedColls() {
		payloads := []string{"eager", "rndv"}
		if pc.coll == "barrier" {
			payloads = []string{"none"}
		}
		for _, shape := range [][2]int{{6, 3}, {8, 8}} {
			for _, payload := range payloads {
				for _, nonblocking := range []bool{false, true} {
					line, err := runPinned(pc, nonblocking, shape[0], shape[1], payload)
					if err != nil {
						t.Fatalf("%s %s: %v", pc.coll, pc.alg, err)
					}
					got = append(got, line)
				}
			}
		}
	}
	want := strings.Split(strings.TrimSpace(pinnedSchedules), "\n")
	if len(got) != len(want) {
		t.Errorf("%d schedule lines, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("schedule moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("fresh fingerprints:\n%s", strings.Join(got, "\n"))
	}
}
