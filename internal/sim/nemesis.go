package sim

import "fmt"

// This file is the kernel half of the deterministic nemesis layer: fault
// events (server crash/restart, directed link cut/heal, replica replace,
// whole-cluster restore) applied to a kernel at scheduled virtual
// instants. ApplyFault is the one entry point: it applies every kind and
// reports what changed (FaultResult), and the driver only schedules and
// counts. Faults are first-class configuration changes, not schedule
// tricks, and they compose with every stepping engine because the driver
// applies them only between engine runs — never while shards are
// stepping; inboxes and arrivals live in the kernel throughout — so the
// same schedule replays byte-for-byte at any worker count.
//
// Semantics (see DESIGN.md, "Deterministic fault injection"):
//
//   - A crash freezes a process: it takes no steps and receives no
//     deliveries until its restart. Messages addressed to it — in transit
//     or sent while it is down — are held, never dropped. With lose=false
//     (persistence) its state and income buffer survive: the whole
//     outage is indistinguishable from a long network delay, a schedule
//     the asynchronous model already contains. With lose=true the income
//     buffer and the process state are lost at the crash: the registered
//     recovery hook (protocol.Deploy's builds a factory-fresh server)
//     replaces the process on the spot, and the restart only resumes it.
//     A replace or restore of the same server in between finds no
//     durable image: the disk went with the crash.
//   - A cut severs directed links: messages in transit on them and
//     messages sent on them while cut are held. A heal releases them;
//     they become deliverable no earlier than max(ReadyAt, heal instant).
//     Links stay reliable — a partition delays, it never loses.
//   - A replace swaps a fresh process into a dead server's slot (adopting
//     its ID-space and shard) and catches it up via the registered
//     replacement hook; a restore is the coordinated whole-cluster
//     stop-and-rebuild from durable snapshots. Both leave the targets
//     down (FaultResult.Pending) until companion restarts model the
//     catch-up completing, so a replacement never serves reads before it
//     is caught up.
//
// Held messages stay in the transit buffer and the live count so
// configuration accounting is exact; only the arrival index skips
// them, which is what makes them undeliverable.

// FaultKind classifies nemesis events.
type FaultKind uint8

// Nemesis event kinds.
const (
	// FaultCrash halts Proc. Lose selects volatile-state loss.
	FaultCrash FaultKind = iota
	// FaultRestart brings Proc back as it is: a lossy crash already
	// rebuilt it.
	FaultRestart
	// FaultCut severs every directed link between the From and To groups
	// (both directions).
	FaultCut
	// FaultHeal restores those links.
	FaultHeal
	// FaultReplace swaps a fresh process into Proc's slot: the target is
	// crashed (if still up), rebuilt by its replacement hook — which
	// adopts the dead server's ID-space and catches its state up — and
	// stays down (FaultResult.Pending) until a companion FaultRestart,
	// which the caller schedules, models the catch-up completing. Lose
	// selects disk loss: the replacement starts factory-fresh and owns
	// only what live peers can transfer; without it the replacement
	// reattaches the durable image (snapshot restore).
	FaultReplace
	// FaultRestore is the coordinated whole-cluster stop-and-rebuild:
	// every process in From is crashed first, then each is replaced from
	// its latest durable snapshot (peers are all down, so no live
	// transfer happens) and stays down until its companion restart. Lose
	// wipes the snapshots too — total data loss, which certification
	// must catch.
	FaultRestore
)

func (fk FaultKind) String() string {
	switch fk {
	case FaultCrash:
		return "crash"
	case FaultRestart:
		return "restart"
	case FaultCut:
		return "cut"
	case FaultHeal:
		return "heal"
	case FaultReplace:
		return "replace"
	case FaultRestore:
		return "restore"
	}
	return fmt.Sprintf("fault(%d)", fk)
}

// Fault is one scheduled nemesis event. At is a virtual instant —
// relative to the run start in driver schedules, absolute by the time
// ApplyFault sees it.
type Fault struct {
	At   Time
	Kind FaultKind
	// Proc is the crash/restart/replace target.
	Proc ProcessID
	// Lose selects volatile-state loss for a crash: the income buffer is
	// dropped and the process is rebuilt by its recovery hook, both at the
	// crash. False models persistence: state and inbox survive the outage
	// untouched.
	Lose bool
	// From and To are the partition groups for cut/heal: every directed
	// link between a From process and a To process, in both directions,
	// is affected. For restore, From is the set of processes to stop and
	// rebuild together (To is unused).
	From, To []ProcessID
}

func (f Fault) String() string {
	switch f.Kind {
	case FaultCrash, FaultRestart, FaultReplace:
		return fmt.Sprintf("%s(%s,lose=%v)@%d", f.Kind, f.Proc, f.Lose, f.At)
	case FaultRestore:
		return fmt.Sprintf("%s(%v,lose=%v)@%d", f.Kind, f.From, f.Lose, f.At)
	default:
		return fmt.Sprintf("%s(%v|%v)@%d", f.Kind, f.From, f.To, f.At)
	}
}

// SyncStats accounts the state a replacement process adopted during
// catch-up: Snapshot counts the versions loaded from the durable image it
// reattached (0 on a lossy replace — the disk is gone), Peer the versions
// transferred from live peer replicas. The driver derives the
// deterministic catch-up duration from the total.
type SyncStats struct {
	Snapshot int
	Peer     int
}

// Total returns the number of versions the replacement adopted.
func (s SyncStats) Total() int { return s.Snapshot + s.Peer }

// ReplacementHook builds the process that replaces old under the same ID
// during a FaultReplace/FaultRestore: it adopts the dead process's
// ID-space and shard, catches its state up (from the durable image, from
// live peers, or both), and reports what it synced. The kernel is passed
// explicitly so hooks installed before a Snapshot keep working on the
// copy. protocol.Deploy installs hooks for every server, and a replace
// of a process without one panics.
type ReplacementHook func(k *Kernel, old Process, lose bool) (Process, SyncStats)

// SetRecovery registers the hook that rebuilds pid at a lossy crash: the
// crash installs the process it returns under the same ID, down until the
// restart. Without a hook the old state is kept (which degrades lose to
// persist). protocol.Deploy installs a factory-fresh rebuild for every
// server: a lossy crash loses all state.
func (k *Kernel) SetRecovery(pid ProcessID, f func() Process) {
	if k.recovery == nil {
		k.recovery = make(map[ProcessID]func() Process)
	}
	k.recovery[pid] = f
}

// SetReplacement registers the hook that rebuilds pid during a
// FaultReplace or FaultRestore.
func (k *Kernel) SetReplacement(pid ProcessID, f ReplacementHook) {
	if k.replacement == nil {
		k.replacement = make(map[ProcessID]ReplacementHook)
	}
	k.replacement[pid] = f
}

// Down reports whether pid is currently crashed.
func (k *Kernel) Down(pid ProcessID) bool {
	s, ok := k.slotOf[pid]
	return ok && k.down[s]
}

// LinkCut reports whether the directed link is currently severed.
func (k *Kernel) LinkCut(l Link) bool {
	ends, ok := k.linkSlots(l)
	return ok && k.cut[ends]
}

// linkSlots resolves a link to its (from, to) slots, the key of cut; ok
// is false when either end is unknown (such a link carries nothing).
func (k *Kernel) linkSlots(l Link) (ends [2]slot, ok bool) {
	from, okF := k.slotOf[l.From]
	to, okT := k.slotOf[l.To]
	return [2]slot{from, to}, okF && okT
}

// blocked reports whether a message on the link can currently make
// progress toward delivery. Hot path: a fault-free run pays one flag read
// and one integer compare.
func (k *Kernel) blocked(from, to slot) bool {
	return k.down[to] || (len(k.cut) > 0 && k.cut[[2]slot{from, to}])
}

// hold strands a live in-transit message: it stays in transit and the
// live count (configuration accounting is exact) but leaves the arrival
// index, so no scheduler can deliver it until released. Its envelope is
// pinned: the index entry it may leave behind outlives the release.
func (k *Kernel) hold(m *Message) {
	m.held, m.pinned = true, true
	k.heldMsgs = append(k.heldMsgs, m)
}

// loseInbox discards the delivered-but-unconsumed messages of the process
// in slot s: its disk is gone.
func (k *Kernel) loseInbox(s slot) {
	if n := len(k.inbox[s]); n > 0 {
		k.pendingInboxes--
		k.lostInbox += int64(n)
		k.inbox[s] = nil
	}
}

// holdMatching strands every live in-transit message the predicate
// selects (crash: addressed to the target; cut: on the severed link).
func (k *Kernel) holdMatching(match func(*Message) bool) {
	for _, m := range k.transit {
		if !m.gone && !m.held && match(m) {
			k.hold(m)
		}
	}
}

// releaseHeld re-arms every held message that is no longer blocked,
// pushing it back onto the arrival index. Delivery then happens at
// max(ReadyAt, now): never early, possibly late — a schedule the
// asynchronous model already contains.
func (k *Kernel) releaseHeld() {
	kept := k.heldMsgs[:0]
	for _, m := range k.heldMsgs {
		if m.gone {
			continue // dropped while held
		}
		if k.blocked(m.from, m.to) {
			kept = append(kept, m)
			continue
		}
		m.held = false
		k.pushArrival(m)
	}
	for i := len(kept); i < len(k.heldMsgs); i++ {
		k.heldMsgs[i] = nil
	}
	k.heldMsgs = kept
}

// crash halts pid at the current instant. Returns false (no-op) if pid
// is unknown or already down. With lose, the income buffer is dropped and
// the recovery hook rebuilds the process, both on the spot. Without,
// state and inbox are frozen intact. Either way every in-transit message
// addressed to pid is held until restart.
func (k *Kernel) crash(pid ProcessID, lose bool) bool {
	s, ok := k.slotOf[pid]
	if !ok || k.down[s] {
		return false
	}
	k.edits++
	k.down[s] = true
	if lose {
		k.loseInbox(s)
		if rec := k.recovery[pid]; rec != nil {
			k.procs[s] = rec()
		}
	}
	k.holdMatching(func(m *Message) bool { return m.to == s })
	k.Annotate(EvMark, pid, fmt.Sprintf("crash lose=%v", lose))
	return true
}

// restart brings a crashed pid back at the current instant, resuming the
// process in its slot. Held messages addressed to pid become deliverable
// again (unless their link is also cut).
func (k *Kernel) restart(pid ProcessID) bool {
	s, ok := k.slotOf[pid]
	if !ok || !k.down[s] {
		return false
	}
	k.edits++
	k.down[s] = false
	k.releaseHeld()
	k.Annotate(EvMark, pid, "restart")
	return true
}

// replace swaps a fresh process into pid's slot at the current instant
// and adds the outcome to r: the target is crashed first (if still up),
// then rebuilt by its replacement hook, which adopts the dead process's
// ID-space and catches its state up. The process REMAINS DOWN afterwards
// — it only starts serving once a companion restart fires, which is how
// the caller models the catch-up taking time. With lose, the
// replacement's disk is gone: any delivered-but-unconsumed income buffer
// is discarded (accounted like a lossy crash) and the hook starts
// factory-fresh, owning only what live peers transfer. Without, the
// durable image (state and inbox) reattaches intact; after a lossy crash
// that image is the fresh process the crash installed. Unknown processes
// are a no-op; a known one without a replacement hook panics.
func (k *Kernel) replace(r *FaultResult, pid ProcessID, lose bool) {
	s, ok := k.slotOf[pid]
	if !ok {
		return
	}
	hook := k.replacement[pid]
	if hook == nil {
		panic(fmt.Sprintf("sim: replace(%s): no replacement hook registered", pid))
	}
	if !k.down[s] {
		k.crash(pid, lose)
		r.Downed++
	} else if lose {
		// Already down from an earlier (persistent) crash: the fresh
		// disk never saw the delivered-but-unconsumed buffer either.
		k.loseInbox(s)
	}
	k.edits++
	r.Applied = true
	r.Pending = append(r.Pending, pid)
	p, st := hook(k, k.procs[s], lose)
	if p != nil {
		k.procs[s] = p
	}
	r.Sync.Snapshot += st.Snapshot
	r.Sync.Peer += st.Peer
	k.Annotate(EvMark, pid, fmt.Sprintf("replace lose=%v synced=%d+%d", lose, st.Snapshot, st.Peer))
}

// cutLink severs one directed link. In-transit messages on it are held;
// so is everything sent on it until healLink. Returns false if already
// cut (or an end is unknown: such a link carries nothing).
func (k *Kernel) cutLink(l Link) bool {
	ends, ok := k.linkSlots(l)
	if !ok || k.cut[ends] {
		return false
	}
	if k.cut == nil {
		k.cut = make(map[[2]slot]bool)
	}
	k.cut[ends] = true
	k.holdMatching(func(m *Message) bool { return [2]slot{m.from, m.to} == ends })
	return true
}

// healLink restores a severed link and releases its held messages
// (unless their destination is still down). Returns false if not cut.
func (k *Kernel) healLink(l Link) bool {
	ends, ok := k.linkSlots(l)
	if !ok || !k.cut[ends] {
		return false
	}
	delete(k.cut, ends)
	k.releaseHeld()
	return true
}

// FaultResult is what one ApplyFault changed.
type FaultResult struct {
	// Applied reports whether anything changed.
	Applied bool
	// Downed counts the targets the fault took down that were up: the
	// outages it opens (a target already down keeps the one it has).
	Downed int
	// Pending lists the targets a replace or restore rebuilt and left
	// down, awaiting their companion restarts; Sync sums what their
	// replacement hooks adopted.
	Pending []ProcessID
	Sync    SyncStats
}

// ApplyFault executes one nemesis event against the kernel at the
// current instant (the caller advances the clock to f.At first) and is
// the only way a fault changes a kernel. Re-crashing a downed process or
// re-cutting a severed link is a deliberate no-op (Applied false), which
// makes arbitrary (fuzzed) schedules safe to apply.
func (k *Kernel) ApplyFault(f Fault) FaultResult {
	var r FaultResult
	switch f.Kind {
	case FaultCrash:
		if k.crash(f.Proc, f.Lose) {
			r.Applied, r.Downed = true, 1
		}
	case FaultRestart:
		r.Applied = k.restart(f.Proc)
	case FaultCut, FaultHeal:
		op := k.cutLink
		if f.Kind == FaultHeal {
			op = k.healLink
		}
		for _, a := range f.From {
			for _, b := range f.To {
				if a == b {
					continue
				}
				for _, l := range [2]Link{{From: a, To: b}, {From: b, To: a}} {
					if op(l) {
						r.Applied = true
					}
				}
			}
		}
		if r.Applied {
			k.Annotate(EvMark, "", fmt.Sprintf("%s %v|%v", f.Kind, f.From, f.To))
		}
	case FaultReplace:
		k.replace(&r, f.Proc, f.Lose)
	case FaultRestore:
		// A coordinated stop first: with every target down, no peer is
		// live during the rebuild, so the hooks transfer nothing from
		// peers and each target comes back from its durable snapshot.
		for _, pid := range f.From {
			if k.crash(pid, f.Lose) { // no-op on unknown and already-down targets
				r.Downed++
			}
		}
		for _, pid := range f.From {
			k.replace(&r, pid, f.Lose)
		}
		if r.Applied {
			k.Annotate(EvMark, "", fmt.Sprintf("restore %d procs lose=%v synced=%d+%d", len(r.Pending), f.Lose, r.Sync.Snapshot, r.Sync.Peer))
		}
	}
	return r
}

// HeldMessages returns how many messages are currently held (strand by a
// crash or cut), and LostInboxMessages how many delivered-but-unconsumed
// messages lossy crashes have discarded so far.
func (k *Kernel) HeldMessages() int {
	n := 0
	for _, m := range k.heldMsgs {
		if !m.gone {
			n++
		}
	}
	return n
}

// LostInboxMessages returns the number of income-buffer messages dropped
// by lossy crashes so far.
func (k *Kernel) LostInboxMessages() int64 { return k.lostInbox }

// CheckConservation verifies the kernel's message accounting: every
// message ever sent is either still live in transit (held included),
// was delivered exactly once, or was explicitly dropped from transit.
// Lossy crashes discard only already-delivered messages, so they never
// unbalance the equation. Fault-injection tests assert this after
// arbitrary schedules.
func (k *Kernel) CheckConservation() error {
	live := int64(k.live)
	if k.nextID != k.deliveredMsgs+live+k.lostTransit {
		return fmt.Errorf("sim: message conservation broken: sent %d != delivered %d + live %d + dropped %d",
			k.nextID, k.deliveredMsgs, live, k.lostTransit)
	}
	inTransit, held := 0, 0
	for _, m := range k.transit {
		if m.gone {
			continue
		}
		inTransit++
		if m.held {
			held++
			if !k.blocked(m.from, m.to) {
				return fmt.Errorf("sim: message %s held but neither destination down nor link cut", m)
			}
		}
	}
	if inTransit != k.live {
		return fmt.Errorf("sim: live count %d, transit holds %d live messages", k.live, inTransit)
	}
	if hm := k.HeldMessages(); hm != held {
		return fmt.Errorf("sim: held stash tracks %d messages, transit has %d held", hm, held)
	}
	return nil
}
