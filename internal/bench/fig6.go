package bench

import (
	"fmt"
	"io"

	"commoverlap/internal/mpi"
	"commoverlap/internal/trace"
)

// TimelineEntry is one bar of the Fig. 6 diagram: when an operation's
// posting call started and returned, and when the operation completed, in
// seconds relative to the case start, observed on the measured rank
// (node 0, like the paper).
type TimelineEntry struct {
	Case  string
	Label string
	Post  float64 // posting-call start
	Ready float64 // posting-call return
	Done  float64 // operation complete (wait return)
}

// CaseUtil is the lane utilization of one Fig. 6 case's job.
type CaseUtil struct {
	Case string
	Util UtilStats
}

// Fig6Result holds the reduction and broadcast timelines and the lane
// utilization of each case's run.
type Fig6Result struct {
	Reduce []TimelineEntry
	Bcast  []TimelineEntry
	// ReduceUtil and BcastUtil hold one entry per distinct case, in the
	// order the cases ran.
	ReduceUtil []CaseUtil
	BcastUtil  []CaseUtil
}

// Fig6 reproduces the paper's timing diagram: 8 MB reductions and
// broadcasts on 4 nodes under blocking, nonblocking overlap (N_DUP=4) and
// 4-PPN overlap, plus the 2 MB and 8 MB single-operation references.
func Fig6(w io.Writer, o Options) (Fig6Result, error) {
	var res Fig6Result
	const total = 8 << 20
	ops := []string{"reduce", "bcast"}
	refs := []struct {
		label string
		bytes int64
		nb    bool
	}{
		{"blocking 8MB", total, false},
		{"nonblocking 8MB", total, true},
		{"blocking 2MB", total / 4, false},
		{"nonblocking 2MB", total / 4, true},
	}
	// Six independent jobs per op: the four single-shot references, the
	// nonblocking overlap case and the 4-PPN case.
	const jobsPerOp = 6
	type caseOut struct {
		entries []TimelineEntry
		util    CaseUtil
	}
	cases, err := parcases(o, len(ops)*jobsPerOp, func(i int) (caseOut, error) {
		op := ops[i/jobsPerOp]
		var (
			es   []TimelineEntry
			u    UtilStats
			name string
			err  error
		)
		switch j := i % jobsPerOp; {
		case j < len(refs):
			// Blocking and nonblocking single-shot references.
			es, u, err = timelineSingle(o, op, refs[j].label, refs[j].bytes, refs[j].nb)
			name = refs[j].label
		case j == len(refs):
			// Nonblocking overlap: four 2 MB operations on duplicated comms.
			es, u, err = timelineOverlap(o, op)
		default:
			// 4-PPN overlap: four processes per node, each a blocking 2 MB op.
			es, u, err = timelinePPN(o, op)
		}
		if err != nil {
			return caseOut{}, err
		}
		if name == "" {
			name = es[0].Case
		}
		return caseOut{entries: es, util: CaseUtil{Case: name, Util: u}}, nil
	})
	if err != nil {
		return res, err
	}
	for opi, op := range ops {
		var entries []TimelineEntry
		var utils []CaseUtil
		for _, c := range cases[opi*jobsPerOp : (opi+1)*jobsPerOp] {
			entries = append(entries, c.entries...)
			utils = append(utils, c.util)
		}
		if op == "reduce" {
			res.Reduce, res.ReduceUtil = entries, utils
		} else {
			res.Bcast, res.BcastUtil = entries, utils
		}
		fprintf(w, "Figure 6 (%s, 4 nodes): post/ready/done in microseconds on node 0\n", op)
		for _, e := range entries {
			fprintf(w, "  %-28s %-22s post@%8.1f  ready@%8.1f  done@%8.1f\n",
				e.Case, e.Label, e.Post*1e6, e.Ready*1e6, e.Done*1e6)
		}
		if w != nil {
			fprintf(w, "\n")
			RenderTimeline(w, entries)
			fprintf(w, "\n")
		}
		fprintf(w, "Resource utilization per case (%% busy over the case's run):\n")
		fprintf(w, "  %-28s %8s %8s %8s\n", "case", "wire", "cpu", "nic")
		for _, cu := range utils {
			fprintf(w, "  %-28s %7.1f%% %7.1f%% %7.1f%%\n",
				cu.Case, 100*cu.Util.Wire, 100*cu.Util.CPU, 100*cu.Util.NIC)
		}
		fprintf(w, "\n")
	}
	return res, nil
}

// RenderTimeline draws the entries as a text Gantt chart (the visual form
// of the paper's Fig. 6): for each operation, the posting call is the
// leading segment and the remaining in-flight time the trailing one.
func RenderTimeline(w io.Writer, entries []TimelineEntry) {
	timelineRecorder(entries).Render(w, 72)
}

// timelineRecorder replays the entries into a trace recorder, one track
// per bar, posting call and in-flight time as separate spans.
func timelineRecorder(entries []TimelineEntry) *trace.Recorder {
	rec := &trace.Recorder{}
	for i, e := range entries {
		name := fmt.Sprintf("%.10s %s", e.Case, e.Label)
		if e.Ready > e.Post {
			rec.Span(i, name+" post", e.Post, e.Ready)
		}
		if e.Done > e.Ready {
			rec.Span(i, name, e.Ready, e.Done)
		} else {
			rec.Point(i, name+" done", e.Done)
		}
	}
	return rec
}

// WriteChromeTrace exports both timelines as Chrome trace-event JSON
// (load in Perfetto or chrome://tracing). Every bar becomes its own
// process track, reduce first, broadcast after.
func (r Fig6Result) WriteChromeTrace(w io.Writer) error {
	entries := make([]TimelineEntry, 0, len(r.Reduce)+len(r.Bcast))
	entries = append(entries, r.Reduce...)
	entries = append(entries, r.Bcast...)
	return timelineRecorder(entries).WriteChromeTrace(w)
}

func timelineSingle(o Options, op, label string, bytes int64, nonblocking bool) ([]TimelineEntry, UtilStats, error) {
	var entry TimelineEntry
	w, err := o.run(naturalSpec(fig5Nodes, 1), func(pr *mpi.Proc) {
		c := pr.World()
		c.Barrier()
		t0 := pr.Now()
		b := mpi.Phantom(bytes)
		var req *mpi.Request
		if op == "bcast" {
			if nonblocking {
				req = c.Ibcast(0, b)
			} else {
				c.Bcast(0, b)
			}
		} else {
			if nonblocking {
				req = c.Ireduce(0, b, b, mpi.OpSum)
			} else {
				c.Reduce(0, b, b, mpi.OpSum)
			}
		}
		ready := pr.Now()
		if req != nil {
			req.Wait()
		}
		if pr.Rank() == 0 {
			entry = TimelineEntry{
				Case:  label,
				Label: "op",
				Post:  0,
				Ready: ready - t0,
				Done:  pr.Now() - t0,
			}
		}
	})
	return []TimelineEntry{entry}, jobUtil(w, err), err
}

func timelineOverlap(o Options, op string) ([]TimelineEntry, UtilStats, error) {
	const ndup = 4
	entries := make([]TimelineEntry, ndup)
	w, err := o.run(naturalSpec(fig5Nodes, 1), func(pr *mpi.Proc) {
		c := pr.World()
		comms := c.DupN(ndup)
		c.Barrier()
		t0 := pr.Now()
		reqs := make([]*mpi.Request, ndup)
		for d := 0; d < ndup; d++ {
			post := pr.Now() - t0
			b := mpi.Phantom(2 << 20)
			if op == "bcast" {
				reqs[d] = comms[d].Ibcast(0, b)
			} else {
				reqs[d] = comms[d].Ireduce(0, b, b, mpi.OpSum)
			}
			if pr.Rank() == 0 {
				entries[d] = TimelineEntry{
					Case:  "nonblk overlap N_DUP=4",
					Label: fmt.Sprintf("%s #%d (2MB)", op, d+1),
					Post:  post,
					Ready: pr.Now() - t0,
				}
			}
		}
		for d := 0; d < ndup; d++ {
			reqs[d].Wait()
			if pr.Rank() == 0 {
				entries[d].Done = pr.Now() - t0
			}
		}
	})
	return entries, jobUtil(w, err), err
}

func timelinePPN(o Options, op string) ([]TimelineEntry, UtilStats, error) {
	const ppn = 4
	entries := make([]TimelineEntry, ppn)
	w, err := o.run(naturalSpec(fig5Nodes*ppn, ppn), func(pr *mpi.Proc) {
		col := pr.World().Split(pr.Rank()%ppn, pr.Rank()/ppn)
		pr.World().Barrier()
		t0 := pr.Now()
		b := mpi.Phantom(2 << 20)
		if op == "bcast" {
			col.Bcast(0, b)
		} else {
			col.Reduce(0, b, b, mpi.OpSum)
		}
		if pr.Rank() < ppn { // the four processes on node 0
			entries[pr.Rank()] = TimelineEntry{
				Case:  "4 PPN overlap",
				Label: fmt.Sprintf("proc %d %s (2MB)", pr.Rank()+1, op),
				Post:  0,
				Ready: pr.Now() - t0,
				Done:  pr.Now() - t0,
			}
		}
	})
	return entries, jobUtil(w, err), err
}

// jobUtil guards utilization against a failed job (nil world).
func jobUtil(w *mpi.World, err error) UtilStats {
	if err != nil || w == nil {
		return UtilStats{}
	}
	return utilization(w)
}
