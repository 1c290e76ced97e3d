// Package sim implements the asynchronous message-passing system model of
// Didona et al., "Distributed Transactional Systems Cannot Be Fast"
// (SPAA 2019), Section 2.
//
// The system is a set of processes (clients and servers) modelled as
// deterministic state machines, connected by reliable links. Two kinds of
// events exist:
//
//   - a delivery event moves one message from the outcome buffer of its
//     source link to the income buffer of its destination, and
//   - a computation step makes one process consume every message currently
//     in its income buffers, update its state, and send at most one message
//     per neighbour.
//
// The order of events is controlled by a Scheduler — the adversary of the
// paper. The kernel supports deep configuration snapshots, which the
// adversary uses to construct the indistinguishable executions of the
// impossibility proof (Constructions 1 and 2, and the β → β_p·β_s
// splitting of Lemma 3).
//
// Beyond the proof machinery, the package carries the load-measurement
// substrate. Load runs have one engine: ShardedRunner partitions the
// process set into shards and steps them in conservative lookahead rounds
// on a worker pool, merging sends through a deterministic fixed-shard-
// order rule. For a fixed seed and partition the schedule never depends
// on the worker count — Workers=1 runs the identical schedule serially
// and is the differential oracle for any pool size (the serial-equals-
// parallel guarantee; see ShardedRunner and DESIGN.md). Each shard runs a
// discrete-event policy over its own processes (pending inboxes → due
// deliveries → ready steps → clock jump, leaping past parked servers that
// declare a wake instant via Waker).
//
// Around the engine sit the seeded arrival processes for open-loop
// injection (openloop.go), Kernel.AdvanceTo plus horizon gating for
// bounded runs, and a load mode (SetTraceCap/SetPayloadRetention) that
// keeps memory flat over millions of events.
package sim

import "fmt"

// ProcessID names a process. Servers are conventionally "s0", "s1", ...;
// clients "c0", "c1", ....
type ProcessID string

// Time is virtual time in microseconds. It only advances through delivery
// events (per the configured latency model) and fixed per-step costs; the
// adversary is free to ignore it, which models asynchrony.
type Time int64

// Payload is the protocol-specific content of a message. A message is a
// value: a payload is immutable once sent — sender and receivers only read
// it, and a process builds a new payload to say something new — so the
// kernel, its snapshots and the sent registry all share the one instance.
type Payload interface {
	// Kind returns a short label used in traces ("read-req", "commit", ...).
	Kind() string
}

// Message is a message either in transit (in an outcome buffer) or awaiting
// consumption (in an income buffer).
type Message struct {
	// ID is unique within a kernel, assigned at send time in send order.
	ID int64
	// From and To identify the link the message travels on.
	From, To ProcessID
	// LinkSeq is the per-(From,To)-link sequence number, assigned at send
	// time. Replays identify messages by (From, To, LinkSeq) because IDs
	// may differ between an original run and a filtered replay.
	LinkSeq int64
	// Payload is the protocol content.
	Payload Payload
	// SentAt and ReadyAt record virtual send time and earliest network
	// arrival time (SentAt + sampled link latency). The adversary may
	// deliver later than ReadyAt (asynchrony) but never earlier.
	SentAt, ReadyAt Time
	// DeliveredAt is set when the message enters the income buffer.
	DeliveredAt Time
	// gone marks a message removed from transit (delivered or dropped);
	// the arrival heap uses it to discard stale index entries lazily.
	gone bool
	// held marks a message stranded by a nemesis fault (destination
	// crashed or link cut): still in transit, but not deliverable until
	// the fault clears (nemesis.go).
	held bool
	// to and from are the kernel slots of To and From (Kernel.Add); they
	// sit in what was padding, so the envelope is no larger for them.
	to, from slot
}

// slot is a process's dense index within its kernel.
type slot uint16

func (m *Message) String() string {
	return fmt.Sprintf("#%d %s->%s %s (seq %d)", m.ID, m.From, m.To, m.Payload.Kind(), m.LinkSeq)
}

// clone copies the envelope (delivery state differs between a kernel and
// its snapshot); the payload is a value and is shared.
func (m *Message) clone() *Message {
	c := *m
	return &c
}

// Link identifies a directed link between two processes.
type Link struct {
	From, To ProcessID
}

func (l Link) String() string { return string(l.From) + "->" + string(l.To) }

// Outbound is a message a process wants to send during a computation step.
type Outbound struct {
	To      ProcessID
	Payload Payload
}

// Process is a deterministic state machine — Step, Ready and Clone are all
// a model writes per process. Clones share no mutable state (payloads are
// values, so those may be shared), and no nondeterministic source is
// consulted: maps iterate in sorted order, no wall clock, no global RNG.
type Process interface {
	// ID returns the process identity.
	ID() ProcessID
	// Step executes one computation step. inbox contains every message in
	// the process's income buffers, in delivery order; it may be empty (a
	// spontaneous local step). The slice is the engine's and is reused
	// after the call: a process may keep the messages, never the slice.
	// The return value lists messages to send. The engine copies it
	// before the process steps again, so a process may hand out one
	// buffer from every step and overwrite it on the next.
	Step(now Time, inbox []*Message) []Outbound
	// Ready reports whether an empty-inbox step would do useful work
	// (e.g. a client with an invoked-but-unsent transaction, or a server
	// with pending gossip). Schedulers use it to avoid spinning.
	Ready() bool
	// Clone returns a deep copy of the process for configuration
	// snapshots.
	Clone() Process
}
