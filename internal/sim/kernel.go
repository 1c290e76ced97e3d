package sim

import (
	"fmt"
	"slices"
)

// LatencyModel samples the network latency for a message on a link.
type LatencyModel func(l Link, rng *RNG) Time

// UniformLatency returns a model sampling uniformly from [lo, hi].
func UniformLatency(lo, hi Time) LatencyModel {
	if hi < lo {
		lo, hi = hi, lo
	}
	return func(_ Link, rng *RNG) Time {
		if hi == lo {
			return lo
		}
		return lo + Time(rng.Int63n(int64(hi-lo+1)))
	}
}

// ConstantLatency returns a model with a fixed per-message latency.
func ConstantLatency(d Time) LatencyModel {
	return func(Link, *RNG) Time { return d }
}

// StepCost is the virtual time consumed by one computation step.
const StepCost Time = 1

// Kernel holds a configuration of the system: every process's state plus
// the contents of all income and outcome buffers. It is the executable
// counterpart of a "configuration" in the paper; Snapshot produces the
// deep copies the proof's indistinguishability arguments manipulate.
type Kernel struct {
	now   Time
	procs map[ProcessID]Process
	order []ProcessID // sorted IDs, for deterministic iteration
	// transit is the outcome buffers in send order. Delivered/dropped
	// messages are only marked gone (lazy deletion) and physically removed
	// by compactTransit once they outnumber the live ones, so delivery
	// never pays an O(in-flight) scan+shift. byID is the primary lookup
	// structure: every live in-transit message, keyed by message ID.
	transit []*Message
	byID    map[int64]*Message
	inbox   map[ProcessID][]*Message
	// pendingInboxes counts processes with a non-empty income buffer, so
	// schedulers can skip the per-process scan when nothing is pending.
	pendingInboxes int
	// arrivals indexes transit by (ReadyAt, ID) for the Network scheduler.
	arrivals arrivalHeap
	nextID   int64
	linkSeq  map[Link]int64
	rng      *RNG
	latency  LatencyModel
	trace    *Trace
	// evSeq numbers trace events. It keeps advancing even when events are
	// capped or discarded, so retained events carry their true positions.
	evSeq int64
	// traceCap bounds the retained trace: 0 keeps everything (the proof
	// machinery needs full traces), n > 0 keeps roughly the most recent n
	// events, and a negative cap disables recording entirely (load mode).
	traceCap int
	// keepPayloads controls the sent-payload registry below. Load-mode
	// runs disable it so memory stays flat over millions of events.
	keepPayloads bool
	// latencyFloor is a declared lower bound on the latency model's
	// samples (0 = undeclared). The sharded runner sizes its conservative
	// time windows by it: any message sent inside a window of that width
	// cannot come due before the window ends. An undeclared floor is
	// always safe — windows shrink to a single microsecond.
	latencyFloor Time
	// linkFloor overrides the global floor per link (nil until the first
	// declaration). The lookahead runner derives per-shard-pair null-message
	// bounds from it: a slow link declared with a higher floor buys the
	// receiving shard more lookahead than the global floor would.
	linkFloor map[Link]Time
	// sent is a registry of every payload ever sent, by message ID, used
	// by trace analysis (spec measurements). Payloads are values (see
	// Payload), so snapshots share these entries like the buffered ones.
	sent map[int64]Payload
	// Nemesis state (nemesis.go): crashed processes, severed directed
	// links, the stash of held (undeliverable) messages, and the recovery
	// hooks run after a lossy crash. All nil/empty on fault-free runs —
	// the hot paths gate on the map lengths, so the fault layer costs a
	// fault-free run nothing observable.
	crashed  map[ProcessID]crashInfo
	cut      map[Link]bool
	heldMsgs []*Message
	recovery map[ProcessID]func(Process) Process
	// replacement holds the catch-up hooks run by Replace/Restore
	// (reconfiguration: a fresh process adopts a dead one's shard).
	replacement map[ProcessID]ReplacementHook
	// Conservation counters (CheckConservation): deliveries executed,
	// messages dropped from transit (DropInTransit), and delivered-but-
	// unconsumed messages discarded by lossy crashes.
	deliveredMsgs int64
	lostTransit   int64
	lostInbox     int64
}

// NewKernel creates an empty configuration. Latency defaults to a uniform
// [500µs, 1500µs] model when lat is nil.
func NewKernel(seed int64, lat LatencyModel) *Kernel {
	if lat == nil {
		lat = UniformLatency(500, 1500)
	}
	return &Kernel{
		procs:        make(map[ProcessID]Process),
		byID:         make(map[int64]*Message),
		inbox:        make(map[ProcessID][]*Message),
		linkSeq:      make(map[Link]int64),
		rng:          NewRNG(seed),
		latency:      lat,
		trace:        &Trace{},
		keepPayloads: true,
		sent:         make(map[int64]Payload),
	}
}

// SetTraceCap bounds the retained execution trace. n == 0 restores the
// default unbounded trace, n > 0 retains at least the most recent n events
// (the buffer is compacted when it reaches 2n, so between n and 2n events
// are resident), and n < 0 disables event recording entirely. Event
// sequence numbers keep advancing regardless, and Trace().Dropped counts
// the discarded events.
func (k *Kernel) SetTraceCap(n int) { k.traceCap = n }

// SetPayloadRetention toggles the sent-payload registry backing PayloadOf.
// Trace analysis (the spec measurements) needs it; load-mode throughput
// runs disable it so memory stays flat over millions of sends.
func (k *Kernel) SetPayloadRetention(on bool) { k.keepPayloads = on }

// SetLatencyFloor declares a lower bound on the latency model's samples.
// The model itself is an opaque sampling function, so the bound cannot be
// derived — whoever constructed the model states it (protocol.Deploy does
// for the default model). The sharded runner uses the floor as its
// conservative window width; declaring a floor larger than the model's
// true minimum breaks no invariant of the asynchronous model (deliveries
// are never early, only later), but understates concurrency; 0 (the
// default) is always safe and makes sharded stepping degenerate to
// 1µs windows.
func (k *Kernel) SetLatencyFloor(d Time) {
	if d < 0 {
		d = 0
	}
	k.latencyFloor = d
}

// LatencyFloor returns the declared latency lower bound (0 = undeclared).
func (k *Kernel) LatencyFloor() Time { return k.latencyFloor }

// SetLinkLatencyFloor declares a per-link lower bound on the latency
// model's samples, overriding the global floor for that link only. Like
// the global floor it is a declaration, not a measurement: whoever
// constructed the latency model states it. The lookahead runner folds
// per-link floors into its shard-pair bound matrix, so links declared
// slower than the global floor widen the receiving shard's conservative
// advancement bound. Declaring a floor above the model's true minimum on
// a link understates nothing for correctness of the asynchronous model
// (deliveries are never early) but would let the lookahead runner deliver
// a faster message later than the serial scheduler would — still a valid
// schedule, just a different one.
func (k *Kernel) SetLinkLatencyFloor(l Link, d Time) {
	if d < 0 {
		d = 0
	}
	if k.linkFloor == nil {
		k.linkFloor = make(map[Link]Time)
	}
	k.linkFloor[l] = d
}

// LinkLatencyFloor returns the declared floor for the link: its own
// declaration if present, the global floor otherwise.
func (k *Kernel) LinkLatencyFloor(l Link) Time {
	if f, ok := k.linkFloor[l]; ok {
		return f
	}
	return k.latencyFloor
}

// Add registers a process. It panics on duplicate IDs.
func (k *Kernel) Add(p Process) {
	id := p.ID()
	if _, dup := k.procs[id]; dup {
		panic(fmt.Sprintf("sim: duplicate process %s", id))
	}
	k.procs[id] = p
	i, _ := slices.BinarySearch(k.order, id)
	k.order = slices.Insert(k.order, i, id)
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Trace returns the execution trace.
func (k *Kernel) Trace() *Trace { return k.trace }

// Process returns the registered process with the given ID, or nil.
func (k *Kernel) Process(id ProcessID) Process { return k.procs[id] }

// Processes returns all process IDs in sorted order.
func (k *Kernel) Processes() []ProcessID {
	out := make([]ProcessID, len(k.order))
	copy(out, k.order)
	return out
}

// InTransit returns the messages currently in outcome buffers, in send
// order. The returned slice is a copy; the messages are not.
func (k *Kernel) InTransit() []*Message {
	out := make([]*Message, 0, len(k.byID))
	for _, m := range k.transit {
		if !m.gone {
			out = append(out, m)
		}
	}
	return out
}

// InTransitOn returns deliverable in-transit messages on the given link,
// oldest first. Held messages (stranded by a crash or cut) are excluded:
// callers use this to drive deliveries, and a held message is not a legal
// delivery until the fault clears.
func (k *Kernel) InTransitOn(l Link) []*Message {
	var out []*Message
	for _, m := range k.transit {
		if !m.gone && !m.held && m.From == l.From && m.To == l.To {
			out = append(out, m)
		}
	}
	return out
}

// FindInTransit locates a deliverable in-transit message by link and
// sequence number (held messages excluded, like InTransitOn).
func (k *Kernel) FindInTransit(l Link, seq int64) *Message {
	for _, m := range k.transit {
		if !m.gone && !m.held && m.From == l.From && m.To == l.To && m.LinkSeq == seq {
			return m
		}
	}
	return nil
}

// Inbox returns the messages delivered to pid but not yet consumed.
func (k *Kernel) Inbox(pid ProcessID) []*Message {
	out := make([]*Message, len(k.inbox[pid]))
	copy(out, k.inbox[pid])
	return out
}

// Quiescent reports whether no message is in transit or awaiting
// consumption and no process is Ready. It corresponds to the paper's
// quiescent configurations once all invoked transactions have completed.
func (k *Kernel) Quiescent() bool {
	if len(k.byID) > 0 || k.pendingInboxes > 0 {
		return false
	}
	for _, id := range k.order {
		if k.procs[id].Ready() {
			return false
		}
	}
	return true
}

// Deliver moves the identified in-transit message into the destination's
// income buffer. Virtual time advances to at least the message's ReadyAt.
// It panics if the message is not in transit (scheduler bug). Removal is
// by ID index plus lazy slice deletion: O(1) amortized, matching the
// arrival heap's O(log n) selection.
func (k *Kernel) Deliver(msgID int64) *Message {
	m, ok := k.byID[msgID]
	if !ok {
		panic(fmt.Sprintf("sim: Deliver(%d): message not in transit", msgID))
	}
	if m.held {
		panic(fmt.Sprintf("sim: Deliver(%d): message is held by a fault (destination down or link cut)", msgID))
	}
	delete(k.byID, msgID)
	k.deliveredMsgs++
	m.gone = true
	k.compactTransit()
	if m.ReadyAt > k.now {
		k.now = m.ReadyAt
	}
	m.DeliveredAt = k.now
	if len(k.inbox[m.To]) == 0 {
		k.pendingInboxes++
	}
	k.inbox[m.To] = append(k.inbox[m.To], m)
	k.record(Event{
		Kind: EvDeliver,
		Msgs: []MsgRef{refOf(m)},
	})
	return m
}

// compactTransit physically removes gone messages from the send-order
// slice once they outnumber the live ones, keeping deletion amortized
// O(1) and iteration proportional to the live count.
func (k *Kernel) compactTransit() {
	if len(k.transit) < 32 || len(k.transit) < 2*len(k.byID) {
		return
	}
	live := k.transit[:0]
	for _, m := range k.transit {
		if !m.gone {
			live = append(live, m)
		}
	}
	for i := len(live); i < len(k.transit); i++ {
		k.transit[i] = nil
	}
	k.transit = live
}

// AdvanceTo jumps virtual time forward to t (no-op when t ≤ now). The
// Network scheduler's time-leap and the open-loop driver use it to skip
// idle stretches instead of spinning 1µs steps through them.
func (k *Kernel) AdvanceTo(t Time) {
	if t > k.now {
		k.now = t
	}
}

// StepProcess executes one computation step of pid: the process consumes
// its entire income buffer and may send messages. Returns the sent
// messages. It panics on unknown processes.
func (k *Kernel) StepProcess(pid ProcessID) []*Message {
	p, ok := k.procs[pid]
	if !ok {
		panic(fmt.Sprintf("sim: StepProcess(%s): unknown process", pid))
	}
	if k.Down(pid) {
		panic(fmt.Sprintf("sim: StepProcess(%s): process is crashed", pid))
	}
	in := k.inbox[pid]
	if len(in) > 0 {
		k.pendingInboxes--
	}
	k.inbox[pid] = nil
	k.now += StepCost

	outs := p.Step(k.now, in)
	sent := make([]*Message, 0, len(outs))
	for _, o := range outs {
		sent = append(sent, k.send(pid, o, k.now))
	}

	ev := Event{Kind: EvStep, Proc: pid}
	for _, m := range in {
		ev.Consumed = append(ev.Consumed, refOf(m))
	}
	for _, m := range sent {
		ev.Sent = append(ev.Sent, refOf(m))
	}
	k.record(ev)
	return sent
}

// send materializes one outbound message sent by pid at virtual instant
// at: it assigns the global message ID and per-link sequence number,
// samples the link latency from the kernel RNG, and registers the message
// in the transit structures. It is the single commit point for sends —
// StepProcess calls it inline; the sharded runner calls it during its
// serial merge phase, in deterministic shard-then-send order, which is
// what keeps IDs, sequence numbers and latency draws independent of how
// many workers executed the steps.
func (k *Kernel) send(from ProcessID, o Outbound, at Time) *Message {
	if _, ok := k.procs[o.To]; !ok {
		panic(fmt.Sprintf("sim: %s sent to unknown process %s", from, o.To))
	}
	l := Link{From: from, To: o.To}
	k.nextID++
	k.linkSeq[l]++
	m := &Message{
		ID:      k.nextID,
		From:    from,
		To:      o.To,
		LinkSeq: k.linkSeq[l],
		Payload: o.Payload,
		SentAt:  at,
	}
	m.ReadyAt = at + k.latency(l, k.rng)
	k.transit = append(k.transit, m)
	k.byID[m.ID] = m
	if k.blocked(from, o.To) {
		// Destination down or link cut: the message is committed (ID,
		// sequence number, latency draw) but held out of the arrival
		// index until the fault clears.
		k.hold(m)
	} else {
		k.pushArrival(m)
	}
	if k.keepPayloads {
		k.sent[m.ID] = m.Payload
	}
	return m
}

// Annotate appends an annotation event (invoke/response/mark) to the trace.
func (k *Kernel) Annotate(kind EventKind, pid ProcessID, note string) {
	k.record(Event{Kind: kind, Proc: pid, Note: note})
}

func (k *Kernel) record(ev Event) {
	if k.traceCap < 0 {
		k.evSeq++
		k.trace.Dropped++
		return
	}
	ev.Seq = k.evSeq
	k.evSeq++
	ev.At = k.now
	k.trace.Events = append(k.trace.Events, ev)
	if k.traceCap > 0 && len(k.trace.Events) >= 2*k.traceCap {
		drop := len(k.trace.Events) - k.traceCap
		k.trace.Dropped += int64(drop)
		k.trace.Events = append(k.trace.Events[:0:0], k.trace.Events[drop:]...)
	}
}

func refOf(m *Message) MsgRef {
	return MsgRef{ID: m.ID, Link: Link{From: m.From, To: m.To}, LinkSeq: m.LinkSeq, Kind: m.Payload.Kind()}
}

// PayloadOf returns the payload of any message ever sent in this kernel
// (or its snapshot ancestors), by message ID. Returns nil if unknown or if
// payload retention is disabled.
func (k *Kernel) PayloadOf(id int64) Payload { return k.sent[id] }

// Snapshot returns a deep copy of the configuration: process states, all
// buffers (envelopes; payloads are values and shared), RNG state, link
// sequence counters and the trace so far. The copy's future evolution is
// completely independent of the original's.
func (k *Kernel) Snapshot() *Kernel {
	c := &Kernel{
		now:            k.now,
		procs:          make(map[ProcessID]Process, len(k.procs)),
		order:          append([]ProcessID(nil), k.order...),
		byID:           make(map[int64]*Message, len(k.byID)),
		inbox:          make(map[ProcessID][]*Message, len(k.inbox)),
		pendingInboxes: k.pendingInboxes,
		nextID:         k.nextID,
		linkSeq:        make(map[Link]int64, len(k.linkSeq)),
		rng:            k.rng.Clone(),
		latency:        k.latency,
		trace:          k.trace.clone(),
		evSeq:          k.evSeq,
		traceCap:       k.traceCap,
		keepPayloads:   k.keepPayloads,
		latencyFloor:   k.latencyFloor,
		sent:           make(map[int64]Payload, len(k.sent)),
		deliveredMsgs:  k.deliveredMsgs,
		lostTransit:    k.lostTransit,
		lostInbox:      k.lostInbox,
	}
	if len(k.crashed) > 0 {
		c.crashed = make(map[ProcessID]crashInfo, len(k.crashed))
		for id, ci := range k.crashed {
			c.crashed[id] = ci
		}
	}
	if len(k.cut) > 0 {
		c.cut = make(map[Link]bool, len(k.cut))
		for l := range k.cut {
			c.cut[l] = true
		}
	}
	if len(k.recovery) > 0 {
		c.recovery = make(map[ProcessID]func(Process) Process, len(k.recovery))
		for id, f := range k.recovery {
			c.recovery[id] = f
		}
	}
	if len(k.replacement) > 0 {
		c.replacement = make(map[ProcessID]ReplacementHook, len(k.replacement))
		for id, f := range k.replacement {
			c.replacement[id] = f
		}
	}
	if len(k.linkFloor) > 0 {
		c.linkFloor = make(map[Link]Time, len(k.linkFloor))
		for l, f := range k.linkFloor {
			c.linkFloor[l] = f
		}
	}
	for id, p := range k.sent {
		c.sent[id] = p
	}
	for id, p := range k.procs {
		c.procs[id] = p.Clone()
	}
	c.transit = make([]*Message, 0, len(k.byID))
	for _, m := range k.transit {
		if m.gone {
			continue
		}
		cp := m.clone()
		c.transit = append(c.transit, cp)
		c.byID[cp.ID] = cp
		if cp.held {
			c.heldMsgs = append(c.heldMsgs, cp)
		}
	}
	c.rebuildArrivals()
	for id, msgs := range k.inbox {
		if len(msgs) == 0 {
			continue
		}
		cp := make([]*Message, len(msgs))
		for i, m := range msgs {
			cp[i] = m.clone()
		}
		c.inbox[id] = cp
	}
	for l, s := range k.linkSeq {
		c.linkSeq[l] = s
	}
	return c
}

// DropInTransit removes (loses) an in-transit message. The paper's links
// are reliable, so the adversary never uses this; it exists only for
// failure-injection tests, which verify the checkers catch the resulting
// anomalies.
func (k *Kernel) DropInTransit(msgID int64) bool {
	m, ok := k.byID[msgID]
	if !ok {
		return false
	}
	delete(k.byID, msgID)
	m.gone = true
	k.lostTransit++
	k.compactTransit()
	k.Annotate(EvMark, m.From, fmt.Sprintf("dropped %s", m))
	return true
}
