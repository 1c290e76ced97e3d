package sim

import "fmt"

// EventKind classifies trace events.
type EventKind uint8

// Trace event kinds. EvStep and EvDeliver are the two event types of the
// paper's model; the others are annotations recorded by the protocol layer
// (transaction invocations and responses) and by experiments (marks).
const (
	EvStep EventKind = iota
	EvDeliver
	EvInvoke
	EvResponse
	EvMark
)

func (k EventKind) String() string {
	switch k {
	case EvStep:
		return "step"
	case EvDeliver:
		return "deliver"
	case EvInvoke:
		return "invoke"
	case EvResponse:
		return "response"
	case EvMark:
		return "mark"
	}
	return "unknown"
}

// MsgRef identifies a message by link and per-link sequence number. Unlike
// raw message IDs, MsgRefs remain stable across filtered replays as long as
// the sender's behaviour is unchanged, which is exactly the
// indistinguishability property the proof's constructions rely on. The ID
// field is informational (payload lookup); replay matching uses Link+LinkSeq.
type MsgRef struct {
	ID      int64
	Link    Link
	LinkSeq int64
	Kind    string // payload kind, for rendering
}

func (r MsgRef) String() string {
	return fmt.Sprintf("%s[%d]%s", r.Link, r.LinkSeq, r.Kind)
}

// Event is one entry of an execution trace.
type Event struct {
	Seq  int64     // position in the trace
	At   Time      // virtual time after the event
	Kind EventKind // what happened

	// For EvStep: the process that stepped, the messages it consumed and
	// the messages it sent. For EvDeliver: Msgs has the single delivered
	// message. For EvInvoke / EvResponse / EvMark: Proc and Note describe
	// the annotation.
	Proc     ProcessID
	Consumed []MsgRef
	Sent     []MsgRef
	Msgs     []MsgRef
	Note     string
}

func (e Event) String() string {
	switch e.Kind {
	case EvStep:
		return fmt.Sprintf("%4d step    %-4s consume=%v send=%v", e.Seq, e.Proc, e.Consumed, e.Sent)
	case EvDeliver:
		return fmt.Sprintf("%4d deliver %v", e.Seq, e.Msgs)
	default:
		return fmt.Sprintf("%4d %-7s %-4s %s", e.Seq, e.Kind, e.Proc, e.Note)
	}
}

// Trace is an append-only execution log. With recording off (load mode)
// it retains no events; Dropped counts the discarded ones.
type Trace struct {
	Events []Event
	// Dropped is the number of events discarded while recording was off.
	// The full history spans Dropped+len(Events) events.
	Dropped int64
}

// clone returns a deep copy (Event values are immutable once recorded, so a
// slice copy suffices).
func (t *Trace) clone() *Trace {
	c := &Trace{Events: make([]Event, len(t.Events)), Dropped: t.Dropped}
	copy(c.Events, t.Events)
	return c
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.Events) }

// Since returns the events recorded at or after trace position from.
func (t *Trace) Since(from int) []Event {
	if from < 0 {
		from = 0
	}
	if from > len(t.Events) {
		from = len(t.Events)
	}
	return t.Events[from:]
}
