package sim

import (
	"cmp"
	"fmt"
	"maps"
	"math"
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
	now Time
	// Add gives every process a dense slot, in Add order: ids, procs,
	// inbox, part, linkSeq and crashed are indexed by it, and a message
	// carries the slots of both its ends. slotOf is the only map keyed by
	// ProcessID; send consults it once (the unknown-destination check) and
	// a delivery never. order lists the slots sorted by ID, for
	// deterministic iteration.
	slotOf map[ProcessID]slot
	ids    []ProcessID
	procs  []Process
	order  []slot
	// transit is the outcome buffers in send order, which is ID order:
	// send assigns increasing IDs, and compaction and Snapshot keep the
	// order, so a message is found by binary search. Delivered/dropped
	// messages are only marked gone (lazy deletion) and physically removed
	// by compactTransit once they outnumber the live ones, so delivery
	// never pays an O(in-flight) scan+shift. live counts the messages not
	// gone.
	transit []*Message
	live    int
	inbox   [][]*Message
	// pendingInboxes counts processes with a non-empty income buffer, so
	// schedulers can skip the per-process scan when nothing is pending.
	pendingInboxes int
	// arrivals indexes transit by (ReadyAt, ID), one heap per partition of
	// the process set (part: slot → partition), each message in its
	// destination's. There is a single partition until a ShardedRunner
	// attaches and makes it one per shard; a shard pops its own heap, and
	// EarliestArrival is the minimum over the heap tops — so the index is
	// whole whoever steps next.
	arrivals []arrivalHeap
	part     []int32
	nextID   int64
	// linkSeq[from][to] is the last sequence number sent on the link. Rows
	// grow on demand: a client's spans only the servers it writes to.
	linkSeq [][]int64
	rng     *RNG
	latency LatencyModel
	trace   *Trace
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
	// hooks run after a lossy crash. A fault-free send pays one flag read
	// and one map-length compare for all of it.
	crashed  []crashInfo
	cut      map[[2]slot]bool
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
		slotOf:       make(map[ProcessID]slot),
		arrivals:     make([]arrivalHeap, 1),
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

// Recording reports whether events are retained (the trace cap is not
// negative): when they are not, an annotation's note is never read.
func (k *Kernel) Recording() bool { return k.traceCap >= 0 }

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
	if _, dup := k.slotOf[id]; dup {
		panic(fmt.Sprintf("sim: duplicate process %s", id))
	}
	if len(k.ids) > math.MaxUint16 {
		panic("sim: more processes than a message's slot fields can name")
	}
	s := slot(len(k.ids))
	k.slotOf[id] = s
	k.ids = append(k.ids, id)
	k.procs = append(k.procs, p)
	k.inbox = append(k.inbox, nil)
	k.part = append(k.part, 0)
	k.linkSeq = append(k.linkSeq, nil)
	k.crashed = append(k.crashed, crashInfo{})
	i, _ := slices.BinarySearchFunc(k.order, id, func(o slot, id ProcessID) int { return cmp.Compare(k.ids[o], id) })
	k.order = slices.Insert(k.order, i, s)
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Trace returns the execution trace.
func (k *Kernel) Trace() *Trace { return k.trace }

// Process returns the registered process with the given ID, or nil.
func (k *Kernel) Process(id ProcessID) Process {
	if s, ok := k.slotOf[id]; ok {
		return k.procs[s]
	}
	return nil
}

// Processes returns all process IDs in sorted order.
func (k *Kernel) Processes() []ProcessID {
	out := make([]ProcessID, len(k.order))
	for i, s := range k.order {
		out[i] = k.ids[s]
	}
	return out
}

// InTransit returns the messages currently in outcome buffers, in send
// order. The returned slice is a copy; the messages are not.
func (k *Kernel) InTransit() []*Message {
	out := make([]*Message, 0, k.live)
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
	if s, ok := k.slotOf[pid]; ok {
		return slices.Clone(k.inbox[s])
	}
	return nil
}

// Quiescent reports whether no message is in transit or awaiting
// consumption and no process is Ready. It corresponds to the paper's
// quiescent configurations once all invoked transactions have completed.
func (k *Kernel) Quiescent() bool {
	if k.live > 0 || k.pendingInboxes > 0 {
		return false
	}
	for _, p := range k.procs {
		if p.Ready() {
			return false
		}
	}
	return true
}

// Deliver moves the identified in-transit message into the destination's
// income buffer. Virtual time advances to at least the message's ReadyAt.
// It panics if the message is not in transit (scheduler bug). Lookup is a
// binary search and removal a lazy slice deletion, matching the arrival
// heap's O(log n) selection.
func (k *Kernel) Deliver(msgID int64) *Message {
	m := k.liveMessage(msgID)
	if m == nil {
		panic(fmt.Sprintf("sim: Deliver(%d): message not in transit", msgID))
	}
	if m.held {
		panic(fmt.Sprintf("sim: Deliver(%d): message is held by a fault (destination down or link cut)", msgID))
	}
	k.live--
	k.deliveredMsgs++
	m.gone = true
	k.compactTransit()
	if m.ReadyAt > k.now {
		k.now = m.ReadyAt
	}
	m.DeliveredAt = k.now
	if len(k.inbox[m.to]) == 0 {
		k.pendingInboxes++
	}
	k.inbox[m.to] = append(k.inbox[m.to], m)
	k.record(Event{
		Kind: EvDeliver,
		Msgs: []MsgRef{refOf(m)},
	})
	return m
}

// liveMessage returns the live in-transit message with the given ID, or nil.
func (k *Kernel) liveMessage(msgID int64) *Message {
	i, found := slices.BinarySearchFunc(k.transit, msgID, func(m *Message, id int64) int { return cmp.Compare(m.ID, id) })
	if !found || k.transit[i].gone {
		return nil
	}
	return k.transit[i]
}

// compactTransit physically removes gone messages from the send-order
// slice once they outnumber the live ones, keeping deletion amortized
// O(1) and iteration proportional to the live count.
func (k *Kernel) compactTransit() {
	if len(k.transit) < 32 || len(k.transit) < 2*k.live {
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
// sharded runner's merge and the open-loop driver use it to skip idle
// stretches instead of spinning 1µs steps through them.
func (k *Kernel) AdvanceTo(t Time) {
	if t > k.now {
		k.now = t
	}
}

// StepProcess executes one computation step of pid: the process consumes
// its entire income buffer and may send messages. Returns the sent
// messages. It panics on unknown processes.
func (k *Kernel) StepProcess(pid ProcessID) []*Message {
	s, ok := k.slotOf[pid]
	if !ok {
		panic(fmt.Sprintf("sim: StepProcess(%s): unknown process", pid))
	}
	if k.crashed[s].down {
		panic(fmt.Sprintf("sim: StepProcess(%s): process is crashed", pid))
	}
	in := k.inbox[s]
	if len(in) > 0 {
		k.pendingInboxes--
	}
	k.inbox[s] = nil
	k.now += StepCost

	outs := k.procs[s].Step(k.now, in)
	sent := make([]*Message, 0, len(outs))
	for _, o := range outs {
		sent = append(sent, k.send(s, o, k.now))
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

// send materializes one outbound message sent by the process in slot
// from at virtual instant at: it assigns the global message ID and
// per-link sequence number, samples the link latency from the kernel RNG,
// and registers the message in the transit structures. It is the single commit point for sends —
// StepProcess calls it inline; the sharded runner calls it during its
// serial merge phase, in deterministic shard-then-send order, which is
// what keeps IDs, sequence numbers and latency draws independent of how
// many workers executed the steps.
func (k *Kernel) send(from slot, o Outbound, at Time) *Message {
	to, ok := k.slotOf[o.To]
	if !ok {
		panic(fmt.Sprintf("sim: %s sent to unknown process %s", k.ids[from], o.To))
	}
	seq := k.linkSeq[from]
	if int(to) >= len(seq) {
		seq = append(seq, make([]int64, int(to)+1-len(seq))...)
		k.linkSeq[from] = seq
	}
	seq[to]++
	k.nextID++
	m := &Message{
		ID:      k.nextID,
		From:    k.ids[from],
		To:      o.To,
		LinkSeq: seq[to],
		Payload: o.Payload,
		SentAt:  at,
		to:      to,
		from:    from,
	}
	m.ReadyAt = at + k.latency(Link{From: m.From, To: m.To}, k.rng)
	k.transit = append(k.transit, m)
	k.live++
	if k.blocked(from, to) {
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
		slotOf:         maps.Clone(k.slotOf),
		ids:            slices.Clone(k.ids),
		procs:          make([]Process, len(k.procs)),
		order:          slices.Clone(k.order),
		live:           k.live,
		inbox:          make([][]*Message, len(k.inbox)),
		pendingInboxes: k.pendingInboxes,
		arrivals:       make([]arrivalHeap, 1),
		part:           make([]int32, len(k.part)),
		nextID:         k.nextID,
		linkSeq:        make([][]int64, len(k.linkSeq)),
		rng:            k.rng.Clone(),
		latency:        k.latency,
		trace:          k.trace.clone(),
		evSeq:          k.evSeq,
		traceCap:       k.traceCap,
		keepPayloads:   k.keepPayloads,
		latencyFloor:   k.latencyFloor,
		sent:           make(map[int64]Payload, len(k.sent)),
		crashed:        slices.Clone(k.crashed),
		deliveredMsgs:  k.deliveredMsgs,
		lostTransit:    k.lostTransit,
		lostInbox:      k.lostInbox,
	}
	if len(k.cut) > 0 {
		c.cut = maps.Clone(k.cut)
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
	for s, p := range k.procs {
		c.procs[s] = p.Clone()
	}
	c.transit = make([]*Message, 0, k.live)
	for _, m := range k.transit {
		if m.gone {
			continue
		}
		cp := m.clone()
		c.transit = append(c.transit, cp)
		if cp.held {
			c.heldMsgs = append(c.heldMsgs, cp)
		} else {
			c.pushArrival(cp)
		}
	}
	for s, msgs := range k.inbox {
		if len(msgs) == 0 {
			continue
		}
		cp := make([]*Message, len(msgs))
		for i, m := range msgs {
			cp[i] = m.clone()
		}
		c.inbox[s] = cp
	}
	for s, seq := range k.linkSeq {
		c.linkSeq[s] = slices.Clone(seq)
	}
	return c
}

// DropInTransit removes (loses) an in-transit message. The paper's links
// are reliable, so the adversary never uses this; it exists only for
// failure-injection tests, which verify the checkers catch the resulting
// anomalies.
func (k *Kernel) DropInTransit(msgID int64) bool {
	m := k.liveMessage(msgID)
	if m == nil {
		return false
	}
	m.gone = true
	k.live--
	k.lostTransit++
	k.compactTransit()
	k.Annotate(EvMark, m.From, fmt.Sprintf("dropped %s", m))
	return true
}
