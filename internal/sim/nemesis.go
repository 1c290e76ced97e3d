package sim

import "fmt"

// This file is the kernel half of the deterministic nemesis layer: fault
// events (server crash/restart, directed link cut/heal) applied to a
// kernel at scheduled virtual instants. Faults are first-class
// configuration changes, not schedule tricks, and they compose with every
// stepping engine because the driver applies them only between engine
// runs — never while shards are stepping; inboxes and arrivals live in
// the kernel throughout — so the same schedule replays byte-for-byte at
// any worker count.
//
// Semantics (see DESIGN.md, "Deterministic fault injection"):
//
//   - Crash freezes a process: it takes no steps and receives no
//     deliveries until Restart. Messages addressed to it — in transit or
//     sent while it is down — are held, never dropped. With lose=false
//     (persistence) its state and income buffer survive: the whole
//     outage is indistinguishable from a long network delay, a schedule
//     the asynchronous model already contains. With lose=true the income
//     buffer is discarded at crash time and the process state is rebuilt
//     at restart by the registered recovery hook (the default installed
//     by protocol.Deploy drops all volatile state: a factory-fresh
//     process).
//   - Cut severs one directed link: messages in transit on it and
//     messages sent on it while cut are held. Heal releases them; they
//     become deliverable no earlier than max(ReadyAt, heal instant).
//     Links stay reliable — a partition delays, it never loses.
//   - Replace swaps a fresh process into a dead server's slot (adopting
//     its ID-space and shard) and catches it up via the registered
//     replacement hook; Restore is the coordinated whole-cluster
//     stop-and-rebuild from durable snapshots. Both leave the targets
//     down until companion restarts model the catch-up completing, so a
//     replacement never serves reads before it is caught up.
//
// Held messages keep their transit registration (byID, transit buffer)
// so configuration accounting is exact; only the arrival index skips
// them, which is what makes them undeliverable.

// FaultKind classifies nemesis events.
type FaultKind uint8

// Nemesis event kinds.
const (
	// FaultCrash halts Proc. Lose selects volatile-state loss.
	FaultCrash FaultKind = iota
	// FaultRestart brings Proc back (running the recovery hook if the
	// crash was lossy).
	FaultRestart
	// FaultCut severs every directed link between the From and To groups
	// (both directions).
	FaultCut
	// FaultHeal restores those links.
	FaultHeal
	// FaultReplace swaps a fresh process into Proc's slot: the target is
	// crashed (if still up), rebuilt by its replacement hook — which
	// adopts the dead server's ID-space and catches its state up — and
	// stays down until a companion FaultRestart models the catch-up
	// completing. Lose selects disk loss: the replacement starts
	// factory-fresh and owns only what live peers can transfer; without
	// it the replacement reattaches the durable image (snapshot restore).
	FaultReplace
	// FaultRestore is the coordinated whole-cluster stop-and-rebuild:
	// every process in From is crashed first, then each is rebuilt from
	// its latest durable snapshot (peers are all down, so no live
	// transfer happens). Lose wipes the snapshots too — total data loss.
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
	// dropped immediately and the process is rebuilt by its recovery hook
	// at restart. False models persistence: state and inbox survive the
	// outage untouched.
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

// Recoverable is optionally implemented by processes that keep durable
// state across a lossy crash: Recover returns the post-restart process
// (same ID), typically preserving on-disk fields and discarding the
// rest. Processes without it are rebuilt factory-fresh by the recovery
// hook protocol.Deploy installs — the default drop-all-volatile model.
type Recoverable interface {
	Recover() Process
}

// crashInfo is one slot's crash state: down while crashed, lose when the
// restart must run the recovery hook.
type crashInfo struct {
	down, lose bool
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
// copy. protocol.Deploy installs hooks for every server.
type ReplacementHook func(k *Kernel, old Process, lose bool) (Process, SyncStats)

// SetRecovery registers the hook that rebuilds pid after a lossy crash.
// Restart calls it with the pre-crash process and installs the returned
// one under the same ID; without a hook the old state is kept (which
// degrades lose to persist). protocol.Deploy installs hooks for every
// process it creates.
func (k *Kernel) SetRecovery(pid ProcessID, f func(old Process) Process) {
	if k.recovery == nil {
		k.recovery = make(map[ProcessID]func(Process) Process)
	}
	k.recovery[pid] = f
}

// SetReplacement registers the hook that rebuilds pid during a
// FaultReplace or FaultRestore. Without one, Replace degrades to a crash:
// the process stays down until its companion restart, which runs the
// recovery hook if the replace was lossy.
func (k *Kernel) SetReplacement(pid ProcessID, f ReplacementHook) {
	if k.replacement == nil {
		k.replacement = make(map[ProcessID]ReplacementHook)
	}
	k.replacement[pid] = f
}

// Down reports whether pid is currently crashed.
func (k *Kernel) Down(pid ProcessID) bool {
	s, ok := k.slotOf[pid]
	return ok && k.crashed[s].down
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
	return k.crashed[to].down || (len(k.cut) > 0 && k.cut[[2]slot{from, to}])
}

// hold strands a live in-transit message: it stays registered in transit
// and byID (configuration accounting is exact) but leaves the arrival
// index, so no scheduler can deliver it until released.
func (k *Kernel) hold(m *Message) {
	m.held = true
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

// Crash halts pid at the current instant. Returns false (no-op) if pid
// is unknown or already down. With lose, the income buffer is dropped on
// the spot; state is rebuilt at Restart by the recovery hook. Without,
// state and inbox are frozen intact. Either way every in-transit message
// addressed to pid is held until Restart.
func (k *Kernel) Crash(pid ProcessID, lose bool) bool {
	s, ok := k.slotOf[pid]
	if !ok || k.crashed[s].down {
		return false
	}
	k.crashed[s] = crashInfo{down: true, lose: lose}
	if lose {
		k.loseInbox(s)
	}
	k.holdMatching(func(m *Message) bool { return m.to == s })
	k.Annotate(EvMark, pid, fmt.Sprintf("crash lose=%v", lose))
	return true
}

// Restart brings a crashed pid back at the current instant. After a
// lossy crash the recovery hook rebuilds the process (factory-fresh by
// default); after a persistent crash the frozen state simply resumes.
// Held messages addressed to pid become deliverable again (unless their
// link is also cut).
func (k *Kernel) Restart(pid ProcessID) bool {
	s, ok := k.slotOf[pid]
	if !ok || !k.crashed[s].down {
		return false
	}
	if rec := k.recovery[pid]; rec != nil && k.crashed[s].lose {
		k.procs[s] = rec(k.procs[s])
	}
	k.crashed[s] = crashInfo{}
	k.releaseHeld()
	k.Annotate(EvMark, pid, "restart")
	return true
}

// Replace swaps a fresh process into pid's slot at the current instant:
// the target is crashed first (if still up), then rebuilt by its
// replacement hook, which adopts the dead process's ID-space and catches
// its state up. The process REMAINS DOWN afterwards — it only starts
// serving once a companion Restart fires, which is how the caller models
// the catch-up taking time. With lose, the replacement's disk is gone:
// any delivered-but-unconsumed income buffer is discarded (accounted like
// a lossy crash) and the hook starts factory-fresh, owning only what live
// peers transfer. Without, the durable image (state and inbox) reattaches
// intact. Returns false only for unknown processes.
func (k *Kernel) Replace(pid ProcessID, lose bool) (SyncStats, bool) {
	s, ok := k.slotOf[pid]
	if !ok {
		return SyncStats{}, false
	}
	if !k.crashed[s].down {
		k.Crash(pid, lose)
	} else if lose {
		// Already down from an earlier (persistent) crash: the fresh
		// disk never saw the delivered-but-unconsumed buffer either.
		k.loseInbox(s)
	}
	hook := k.replacement[pid]
	if hook == nil {
		// No catch-up protocol registered: degrade to a plain crash. The
		// recovery hook (if lossy) rebuilds at the companion restart.
		k.crashed[s].lose = lose
		k.Annotate(EvMark, pid, fmt.Sprintf("replace lose=%v (no hook)", lose))
		return SyncStats{}, true
	}
	p, st := hook(k, k.procs[s], lose)
	if p != nil {
		k.procs[s] = p
	}
	// The replacement is already caught up; the companion restart must
	// resume it as-is, not run the lossy-recovery hook over it.
	k.crashed[s].lose = false
	k.Annotate(EvMark, pid, fmt.Sprintf("replace lose=%v synced=%d+%d", lose, st.Snapshot, st.Peer))
	return st, true
}

// Restore performs the coordinated whole-cluster stop-and-rebuild over
// procs: every process is crashed first (a coordinated stop — no peer is
// live during the rebuild, so replacement hooks transfer nothing from
// peers), then each is rebuilt from its latest durable snapshot via
// Replace. All of them remain down until companion Restarts fire. With
// lose the snapshots are gone too: every process comes back factory-fresh
// — total data loss, which certification must catch. Returns the summed
// sync stats and how many processes were restored.
func (k *Kernel) Restore(procs []ProcessID, lose bool) (SyncStats, int) {
	var total SyncStats
	done := 0
	for _, pid := range procs {
		k.Crash(pid, lose) // no-op on unknown and already-down processes
	}
	for _, pid := range procs {
		st, ok := k.Replace(pid, lose)
		if !ok {
			continue
		}
		total.Snapshot += st.Snapshot
		total.Peer += st.Peer
		done++
	}
	if done > 0 {
		k.Annotate(EvMark, "", fmt.Sprintf("restore %d procs lose=%v synced=%d+%d", done, lose, total.Snapshot, total.Peer))
	}
	return total, done
}

// CutLink severs one directed link. In-transit messages on it are held;
// so is everything sent on it until HealLink. Returns false if already
// cut (or an end is unknown: such a link carries nothing).
func (k *Kernel) CutLink(l Link) bool {
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

// HealLink restores a severed link and releases its held messages
// (unless their destination is still down). Returns false if not cut.
func (k *Kernel) HealLink(l Link) bool {
	ends, ok := k.linkSlots(l)
	if !ok || !k.cut[ends] {
		return false
	}
	delete(k.cut, ends)
	k.releaseHeld()
	return true
}

// ApplyFault executes one nemesis event against the kernel at the
// current instant (the caller advances the clock to f.At first). It
// reports whether anything changed — re-crashing a downed process or
// re-cutting a severed link is a deliberate no-op, which makes arbitrary
// (fuzzed) schedules safe to apply.
func (k *Kernel) ApplyFault(f Fault) bool {
	switch f.Kind {
	case FaultCrash:
		return k.Crash(f.Proc, f.Lose)
	case FaultRestart:
		return k.Restart(f.Proc)
	case FaultCut:
		applied := false
		for _, a := range f.From {
			for _, b := range f.To {
				if a == b {
					continue
				}
				if k.CutLink(Link{From: a, To: b}) {
					applied = true
				}
				if k.CutLink(Link{From: b, To: a}) {
					applied = true
				}
			}
		}
		if applied {
			k.Annotate(EvMark, "", fmt.Sprintf("cut %v|%v", f.From, f.To))
		}
		return applied
	case FaultHeal:
		applied := false
		for _, a := range f.From {
			for _, b := range f.To {
				if a == b {
					continue
				}
				if k.HealLink(Link{From: a, To: b}) {
					applied = true
				}
				if k.HealLink(Link{From: b, To: a}) {
					applied = true
				}
			}
		}
		if applied {
			k.Annotate(EvMark, "", fmt.Sprintf("heal %v|%v", f.From, f.To))
		}
		return applied
	case FaultReplace:
		_, ok := k.Replace(f.Proc, f.Lose)
		return ok
	case FaultRestore:
		_, done := k.Restore(f.From, f.Lose)
		return done > 0
	}
	return false
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
	live := int64(len(k.byID))
	if k.nextID != k.deliveredMsgs+live+k.lostTransit {
		return fmt.Errorf("sim: message conservation broken: sent %d != delivered %d + live %d + dropped %d",
			k.nextID, k.deliveredMsgs, live, k.lostTransit)
	}
	held := 0
	for _, m := range k.transit {
		if !m.gone && m.held {
			held++
			if _, ok := k.byID[m.ID]; !ok {
				return fmt.Errorf("sim: held message %s not registered live", m)
			}
			if !k.blocked(m.from, m.to) {
				return fmt.Errorf("sim: message %s held but neither destination down nor link cut", m)
			}
		}
	}
	if hm := k.HeldMessages(); hm != held {
		return fmt.Errorf("sim: held stash tracks %d messages, transit has %d held", hm, held)
	}
	return nil
}
