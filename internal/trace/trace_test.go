package trace

import (
	"strings"
	"testing"
)

func TestPointAndSpan(t *testing.T) {
	var r Recorder
	r.Point(0, "post", 1.0)
	r.Span(1, "xfer", 0.5, 2.5)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Rank != 1 || evs[0].Start != 0.5 || evs[0].End != 2.5 {
		t.Errorf("span wrong: %+v", evs[0])
	}
	if evs[1].Label != "post" || evs[1].Start != evs[1].End {
		t.Errorf("point wrong: %+v", evs[1])
	}
}

func TestEventsSorted(t *testing.T) {
	var r Recorder
	r.Point(2, "b", 3)
	r.Point(1, "a", 1)
	r.Point(1, "z", 3)
	evs := r.Events()
	if evs[0].Start != 1 || evs[1].Rank != 1 || evs[2].Rank != 2 {
		t.Errorf("not sorted: %+v", evs)
	}
}

// TestConcurrentSameLabelSpans is the regression test for the old
// (rank,label)-keyed recorder, which panicked ("span already open") when a
// rank had two same-label spans in flight — exactly the shape of the
// paper's N_DUP overlapped collectives, e.g. two overlapped Ibcast parts
// posted back to back on duplicated communicators. Both must come back as
// their own events and export with distinct async ids.
func TestConcurrentSameLabelSpans(t *testing.T) {
	var r Recorder
	// Rank 0 posts two "ibcast 2MB" parts; both are in flight at once.
	r.Span(0, "ibcast 2MB", 1.5, 2.0)
	r.Span(0, "ibcast 2MB", 1.0, 3.0)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	// Both occurrences recorded with their own start/end.
	if evs[0].Start != 1.0 || evs[0].End != 3.0 {
		t.Errorf("first occurrence wrong: %+v", evs[0])
	}
	if evs[1].Start != 1.5 || evs[1].End != 2.0 {
		t.Errorf("second occurrence wrong: %+v", evs[1])
	}
	ids := map[string]map[int64]bool{"b": {}, "e": {}}
	for _, ce := range r.ChromeEvents() {
		if ids[ce.Ph] != nil {
			ids[ce.Ph][ce.ID] = true
		}
	}
	if len(ids["b"]) != 2 || len(ids["e"]) != 2 {
		t.Errorf("overlapping spans exported with async ids %v, want two distinct", ids)
	}
}

// TestEventsDeterministic: identical repeated point events must come back
// in insertion order every time — sort.Slice's unstable ordering broke
// golden-output tests here before.
func TestEventsDeterministic(t *testing.T) {
	build := func() *Recorder {
		var r Recorder
		// Many ties: same (start, rank, label) repeated, interleaved with
		// distinct events, enough of them that an unstable sort would
		// scramble some run.
		for i := 0; i < 50; i++ {
			r.Point(0, "tick", 1.0)
			r.Span(0, "tick", 1.0, 1.0)
		}
		return &r
	}
	want := build().Events()
	for run := 0; run < 10; run++ {
		got := build().Events()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d event %d = %+v, want %+v (nondeterministic order)", run, i, got[i], want[i])
			}
		}
	}
}

func TestRender(t *testing.T) {
	var r Recorder
	r.Span(0, "reduce", 0, 100e-6)
	r.Span(1, "bcast", 50e-6, 150e-6)
	r.Point(0, "post", 10e-6)
	var sb strings.Builder
	r.Render(&sb, 40)
	out := sb.String()
	for _, want := range []string{"r0 reduce", "r1 bcast", "r0 post", "[", "]", "|", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRenderLongAndMultibyteLabels: the old byte-slice truncation
// (label[:24]) could split a multi-byte rune and hid the tail of long
// labels entirely; now the gutter widens to fit (up to a cap) and
// truncation is rune-safe with an ellipsis.
func TestRenderLongAndMultibyteLabels(t *testing.T) {
	var r Recorder
	long := "nonblk overlap N_DUP=4 reduce #3 of several (2MB)" // > cap
	r.Span(0, long, 0, 1e-3)
	multi := strings.Repeat("μ", 30) // 2-byte runes straddling the cut
	r.Span(1, multi, 0, 1e-3)
	r.Span(2, "short", 0, 1e-3)

	var sb strings.Builder
	r.Render(&sb, 40)
	out := sb.String()
	if !strings.Contains(out, "…") {
		t.Errorf("long labels not truncated with ellipsis:\n%s", out)
	}
	if !strings.Contains(out, "r0 nonblk overlap N_DUP=4") {
		t.Errorf("rank prefix and label head lost:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.ContainsRune(line, '\uFFFD') {
			t.Errorf("split rune produced replacement char: %q", line)
		}
	}
	// Every rendered line must still be valid UTF-8 (no mid-rune cuts).
	if !strings.Contains(out, "μ") {
		t.Errorf("multi-byte label vanished:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	var r Recorder
	var sb strings.Builder
	r.Render(&sb, 40)
	if !strings.Contains(sb.String(), "no events") {
		t.Error("empty render wrong")
	}
}
