package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Chrome trace-event export. The emitted JSON follows the Trace Event
// Format (the "JSON object format" with a traceEvents array) and loads
// directly in Perfetto (ui.perfetto.dev) or chrome://tracing. Spans are
// emitted as *async* begin/end pairs ("b"/"e") with a distinct id per
// span occurrence, so overlapped same-label operations on one rank — the
// N_DUP=4 pipelines of the paper's Fig. 6 — render as parallel tracks
// instead of colliding. Points become instant events ("i"). Timestamps
// are microseconds of virtual time, the unit the format mandates.

// ChromeEvent is one entry of the traceEvents array.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    int64          `json:"id,omitempty"` // async span id; 0 = none
	Scope string         `json:"s,omitempty"`  // instant scope ("t" = thread)
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level JSON object.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// chromeCat is the category all span events carry; the validator keys its
// balance check on (pid, cat, id).
const chromeCat = "vtime"

// ChromeEvents converts the recorder's closed events into trace-event
// form: one async b/e pair per span (distinct ids, numbered in the sorted
// event order) and one instant per point, plus process_name metadata per
// rank so Perfetto labels the tracks "rank N".
func (r *Recorder) ChromeEvents() []ChromeEvent {
	evs := r.Events()
	if len(evs) == 0 {
		return nil
	}
	ranks := map[int]bool{}
	out := make([]ChromeEvent, 0, 2*len(evs)+4)
	var id int64
	for _, e := range evs {
		ranks[e.Rank] = true
		if e.Start == e.End {
			out = append(out, ChromeEvent{
				Name: e.Label, Cat: chromeCat, Ph: "i",
				Ts: e.Start * 1e6, Pid: e.Rank, Tid: e.Rank, Scope: "t",
			})
			continue
		}
		id++
		out = append(out,
			ChromeEvent{Name: e.Label, Cat: chromeCat, Ph: "b",
				Ts: e.Start * 1e6, Pid: e.Rank, Tid: e.Rank, ID: id},
			ChromeEvent{Name: e.Label, Cat: chromeCat, Ph: "e",
				Ts: e.End * 1e6, Pid: e.Rank, Tid: e.Rank, ID: id})
	}
	sorted := make([]int, 0, len(ranks))
	for rk := range ranks {
		sorted = append(sorted, rk)
	}
	sort.Ints(sorted)
	for _, rk := range sorted {
		out = append(out, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: rk, Tid: rk,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rk)},
		})
	}
	return out
}

// WriteChromeTrace writes the recorder's events as a Chrome trace JSON
// document.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, r.ChromeEvents())
}

// ChromeEvents converts the message-protocol log into instant events: one
// "post" per send on the sender's track, one "admit"/"match" per protocol
// step on the receiver's. Loading them next to the span export shows where
// each envelope was in its life while the wire was (or was not) busy.
func (l *MsgLog) ChromeEvents() []ChromeEvent {
	out := make([]ChromeEvent, 0, len(l.events))
	for _, e := range l.Events() {
		pid := e.Dst
		if e.Kind == MsgPost {
			pid = e.Src
		}
		out = append(out, ChromeEvent{
			Name: e.Kind.String(), Cat: "msg", Ph: "i",
			Ts: e.T * 1e6, Pid: pid, Tid: pid, Scope: "t",
			Args: map[string]any{
				"ctx": e.Ctx, "src": e.Src, "dst": e.Dst,
				"tag": e.Tag, "seq": e.Seq, "bytes": e.Bytes,
			},
		})
	}
	return out
}

// WriteChromeTrace writes the events as a Chrome trace JSON document
// (indented, so the artifact is diffable and greppable in CI logs).
func WriteChromeTrace(w io.Writer, events []ChromeEvent) error {
	if events == nil {
		events = []ChromeEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ChromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// asyncKey identifies one async span for the balance check.
type asyncKey struct {
	pid int
	cat string
	id  int64
}

// ValidateChromeTrace parses a Chrome trace JSON document and checks the
// structural properties the exporter guarantees: well-formed JSON, a
// non-empty traceEvents array, a phase and a finite non-negative timestamp
// on every event, and balanced async begin/end pairs — every "b" has
// exactly one "e" with the same (pid, cat, id), no id is reused, and the
// end never precedes the begin. CI runs it over the exported Fig. 6 trace
// so the exporter cannot rot.
func ValidateChromeTrace(rd io.Reader) error {
	var doc ChromeTrace
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("trace JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace JSON: empty traceEvents")
	}
	type spanState struct {
		begins, ends int
		beginTs      float64
		endTs        float64
	}
	spans := map[asyncKey]*spanState{}
	for i, e := range doc.TraceEvents {
		if e.Ph == "" {
			return fmt.Errorf("event %d (%q): missing ph", i, e.Name)
		}
		if math.IsNaN(e.Ts) || math.IsInf(e.Ts, 0) || e.Ts < 0 {
			return fmt.Errorf("event %d (%q): bad ts %v", i, e.Name, e.Ts)
		}
		switch e.Ph {
		case "b", "e":
			if e.ID == 0 {
				return fmt.Errorf("event %d (%q): async %q without id", i, e.Name, e.Ph)
			}
			k := asyncKey{e.Pid, e.Cat, e.ID}
			st := spans[k]
			if st == nil {
				st = &spanState{}
				spans[k] = st
			}
			if e.Ph == "b" {
				st.begins++
				st.beginTs = e.Ts
			} else {
				st.ends++
				st.endTs = e.Ts
			}
		}
	}
	for k, st := range spans {
		switch {
		case st.begins != 1 || st.ends != 1:
			return fmt.Errorf("async span pid=%d cat=%q id=%d: %d begins, %d ends (want exactly 1 each)",
				k.pid, k.cat, k.id, st.begins, st.ends)
		case st.endTs < st.beginTs:
			return fmt.Errorf("async span pid=%d cat=%q id=%d: ends at %g before beginning at %g",
				k.pid, k.cat, k.id, st.endTs, st.beginTs)
		}
	}
	return nil
}
