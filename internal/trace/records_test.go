package trace

import (
	"strings"
	"testing"
)

func TestMsgLogAppendsInOrder(t *testing.T) {
	var l MsgLog
	l.Add(MsgEvent{Kind: MsgPost, T: 1, Ctx: 3, Src: 0, Dst: 1, Tag: 7, Seq: 0, Bytes: 64})
	l.Add(MsgEvent{Kind: MsgAdmit, T: 2, Ctx: 3, Src: 0, Dst: 1, Tag: 7, Seq: 0, Bytes: 64})
	l.Add(MsgEvent{Kind: MsgMatch, T: 2, Ctx: 3, Src: 0, Dst: 1, Tag: 7, Seq: 0, Bytes: 64})
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	if evs[0].Kind != MsgPost || evs[1].Kind != MsgAdmit || evs[2].Kind != MsgMatch {
		t.Fatalf("events out of order: %v", evs)
	}
}

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{
		MsgPost: "post", MsgAdmit: "admit", MsgMatch: "match", MsgKind(99): "msgkind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("MsgKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestMsgEventString(t *testing.T) {
	e := MsgEvent{Kind: MsgMatch, T: 0.5, Ctx: 2, Src: 1, Dst: 3, Tag: 9, Seq: 4, Bytes: 128}
	s := e.String()
	for _, part := range []string{"match", "ctx=2", "src=1", "dst=3", "tag=9", "seq=4", "bytes=128"} {
		if !strings.Contains(s, part) {
			t.Errorf("String() = %q missing %q", s, part)
		}
	}
}
