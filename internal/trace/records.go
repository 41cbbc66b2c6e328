package trace

import "fmt"

// Typed message records. The MPI layer emits one MsgEvent per protocol step
// of every point-to-point message (collectives are built from p2p, so their
// internal rounds appear too). Unlike the free-form Gantt events, these
// records carry the full matching identity, which is what the invariant
// checkers in internal/check consume: non-overtaking, in-order envelope
// admission, and post/match balance are all decidable from a MsgLog alone.

// MsgKind labels one step of a message's life.
type MsgKind int

const (
	// MsgPost: the sender posted the send (envelope created).
	MsgPost MsgKind = iota
	// MsgAdmit: the receiver's matching engine admitted the envelope, in
	// per-(ctx, src) sequence order.
	MsgAdmit
	// MsgMatch: the envelope matched a posted receive.
	MsgMatch
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case MsgPost:
		return "post"
	case MsgAdmit:
		return "admit"
	case MsgMatch:
		return "match"
	default:
		return fmt.Sprintf("msgkind(%d)", int(k))
	}
}

// MsgEvent is one step of one message. Src is the sender's rank within the
// communicator identified by Ctx; Dst is the receiver's world rank (the
// receiving process's identity, stable across communicators). Seq is the
// sender-assigned per-(ctx, src->dst) sequence number that defines the
// non-overtaking order.
type MsgEvent struct {
	Kind  MsgKind
	T     float64 // virtual time of the step
	Ctx   int     // communicator context id
	Src   int     // sender's comm rank
	Dst   int     // receiver's world rank
	Tag   int
	Seq   int64
	Bytes int64
}

// String renders the event compactly for violation reports.
func (e MsgEvent) String() string {
	return fmt.Sprintf("%v t=%.9f ctx=%d src=%d dst=%d tag=%d seq=%d bytes=%d",
		e.Kind, e.T, e.Ctx, e.Src, e.Dst, e.Tag, e.Seq, e.Bytes)
}

// MsgLog is an append-only record of message events. Like Recorder it relies
// on the simulator's cooperative single-threaded execution and needs no
// locking there.
type MsgLog struct {
	events []MsgEvent
}

// Add appends one event.
func (l *MsgLog) Add(e MsgEvent) { l.events = append(l.events, e) }

// Events returns the recorded events in arrival order (which is virtual-time
// order, since the simulator's clock is monotone).
func (l *MsgLog) Events() []MsgEvent { return l.events }
