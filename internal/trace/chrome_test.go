package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// buildOverlapRecorder models the Fig. 6 N_DUP=4 shape: four overlapped
// same-label reduce parts on rank 0 plus a posting point.
func buildOverlapRecorder() *Recorder {
	var r Recorder
	for d := 3; d >= 0; d-- {
		r.Span(0, "ireduce 2MB", float64(d)*100e-6, 2e-3+float64(d)*50e-6)
	}
	r.Point(1, "wait done", 3e-3)
	return &r
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := buildOverlapRecorder()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}

	var doc ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var begins, ends, instants int
	ids := map[int64]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "" {
			t.Errorf("event %q missing ph", e.Name)
		}
		switch e.Ph {
		case "b":
			begins++
			if e.ID == 0 {
				t.Errorf("begin without id: %+v", e)
			}
			if ids[e.ID] {
				t.Errorf("async id %d reused", e.ID)
			}
			ids[e.ID] = true
			if e.Ts < 0 {
				t.Errorf("negative ts: %+v", e)
			}
		case "e":
			ends++
		case "i":
			instants++
			if e.Scope != "t" {
				t.Errorf("instant without thread scope: %+v", e)
			}
		}
	}
	if begins != 4 || ends != 4 {
		t.Errorf("got %d begins, %d ends, want 4 each", begins, ends)
	}
	if len(ids) != 4 {
		t.Errorf("got %d distinct async ids, want 4 (overlapped same-label spans must not share ids)", len(ids))
	}
	if instants != 1 {
		t.Errorf("got %d instants, want 1", instants)
	}

	if err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("validator rejects exporter output: %v", err)
	}
}

func TestChromeTraceMetadataNamesRanks(t *testing.T) {
	r := buildOverlapRecorder()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"process_name", "rank 0", "rank 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q", want)
		}
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"malformed", `{"traceEvents": [`},
		{"empty", `{"traceEvents": []}`},
		{"missing-ph", `{"traceEvents":[{"name":"x","ts":1,"pid":0,"tid":0}]}`},
		{"negative-ts", `{"traceEvents":[{"name":"x","ph":"i","ts":-5,"pid":0,"tid":0}]}`},
		{"unbalanced-begin", `{"traceEvents":[{"name":"x","cat":"vtime","ph":"b","id":1,"ts":1,"pid":0,"tid":0}]}`},
		{"unbalanced-end", `{"traceEvents":[{"name":"x","cat":"vtime","ph":"e","id":1,"ts":1,"pid":0,"tid":0}]}`},
		{"async-no-id", `{"traceEvents":[{"name":"x","cat":"vtime","ph":"b","ts":1,"pid":0,"tid":0}]}`},
		{"end-before-begin", `{"traceEvents":[
			{"name":"x","cat":"vtime","ph":"b","id":1,"ts":5,"pid":0,"tid":0},
			{"name":"x","cat":"vtime","ph":"e","id":1,"ts":2,"pid":0,"tid":0}]}`},
		{"id-reuse", `{"traceEvents":[
			{"name":"x","cat":"vtime","ph":"b","id":1,"ts":1,"pid":0,"tid":0},
			{"name":"x","cat":"vtime","ph":"e","id":1,"ts":2,"pid":0,"tid":0},
			{"name":"y","cat":"vtime","ph":"b","id":1,"ts":3,"pid":0,"tid":0},
			{"name":"y","cat":"vtime","ph":"e","id":1,"ts":4,"pid":0,"tid":0}]}`},
	}
	for _, tc := range cases {
		if err := ValidateChromeTrace(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: validator accepted bad trace", tc.name)
		}
	}
}

func TestMsgLogChromeEvents(t *testing.T) {
	var l MsgLog
	l.Add(MsgEvent{Kind: MsgPost, T: 1e-6, Ctx: 0, Src: 0, Dst: 1, Tag: 7, Seq: 0, Bytes: 64})
	l.Add(MsgEvent{Kind: MsgAdmit, T: 2e-6, Ctx: 0, Src: 0, Dst: 1, Tag: 7, Seq: 0, Bytes: 64})
	l.Add(MsgEvent{Kind: MsgMatch, T: 3e-6, Ctx: 0, Src: 0, Dst: 1, Tag: 7, Seq: 0, Bytes: 64})
	evs := l.ChromeEvents()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Pid != 0 { // post sits on the sender's track
		t.Errorf("post pid = %d, want 0", evs[0].Pid)
	}
	if evs[1].Pid != 1 || evs[2].Pid != 1 { // admit/match on the receiver's
		t.Errorf("admit/match pids = %d/%d, want 1/1", evs[1].Pid, evs[2].Pid)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(&buf); err != nil {
		t.Errorf("msg-log export invalid: %v", err)
	}
}

func TestWriteChromeTraceEmptyIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Errorf("empty export not JSON: %v", err)
	}
	// The validator treats an empty trace as an error by design.
	if err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("validator accepted empty trace")
	}
}
