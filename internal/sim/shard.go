package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ShardedRunner steps a kernel with the process set partitioned into
// shards, so the protocol state machines of different shards execute
// concurrently on a worker pool while the run stays fully deterministic.
// It is a conservative parallel discrete-event engine with per-link
// lookahead, the classic Chandy–Misra null-message design: shards keep
// persistent local clocks and each round computes, per shard, the
// earliest instant any other shard could still affect it — its
// advancement bound — from the other shards' next-event promises plus the
// per-link latency floors. No shard ever waits on one it cannot be
// affected by.
//
// A round proceeds as:
//
//  1. The runner (serial) computes every shard's advancement bound (see
//     round) and gives it the window [clock_i, bound_i).
//  2. Every shard with work runs an independent local sub-simulation of
//     its window — a discrete-event policy (pending inboxes first, then
//     due deliveries in (ReadyAt, ID) order, then Ready steps, with
//     Waker-declared wake leaps bounded by the window end) over its own
//     processes and its local clock. Sends are buffered; of the kernel a
//     shard touches only what is its alone — its partition of the arrival
//     index and its processes' slots. Shards are data-disjoint, so this
//     phase runs on min(Workers, active shards) goroutines.
//  3. The runner (serial again) merges: buffered sends are committed to
//     the kernel in fixed shard order, then send order — assigning
//     message IDs, link sequence numbers and latency samples from the
//     single kernel RNG in an order that does not depend on worker
//     interleaving — and the kernel clock advances to the latest shard-
//     local clock.
//
// The merge rule is what makes the engine deterministic: for a fixed seed
// and shard partition, the recorded history, every report field and the
// full JSON output are byte-identical whatever the worker count —
// Workers=1 executes the identical schedule serially and is the
// differential oracle for Workers≥2 (asserted by tests in internal/driver
// and cmd/bench and by the CI equivalence smoke).
//
// Why no message sent inside a window can matter inside it: link latency
// is at least the declared floor, so a message sent at or after a shard's
// window start has ReadyAt past the shard's bound — cross-shard
// interaction within a round is impossible. Shard-local clocks may run
// past the window end while draining step chains; deliveries are then
// simply late (DeliveredAt ≥ ReadyAt always holds), which the
// asynchronous system model explicitly permits — the adversary may delay
// any delivery. A sharded execution is therefore a valid execution of the
// model, just a different member of the schedule space than a serial
// scheduler such as RoundRobin picks; histories it produces certify at the
// protocols' claimed consistency levels like any other schedule (asserted
// ride-along by the driver's certification).
type ShardedRunner struct {
	k       *Kernel
	workers int
	delta   Time
	shards  []*shard
	nProcs  int
	horizon Time

	// floors is the shard-pair bound matrix: floors[j][i] is the smallest
	// declared latency floor over links from a shard-j process to a
	// shard-i process — the minimum transit time of any influence j can
	// exert on i. Always ≥ 1.
	floors [][]Time
	// stepAt is the readiness cache, one entry per kernel slot: the
	// earliest instant the slot's process could step with an empty
	// inbox — the shard clock when it is Ready, a Waker's declared
	// instant, infTime when it waits on a delivery or is down. Every
	// shard writes only its own slots' entries (shard.refresh).
	stepAt []Time
	// Per-round scratch, sized to the shard count once (active grows to
	// it and is reused).
	e, prom, bnd []Time
	settled      []bool
	arrTop       []*Message
	shardReady   []bool
	shardWake    []Time
	active       []*shard

	stats ShardingStats
}

// infTime is the promise value of a shard with no next event: far enough
// past any reachable virtual instant that adding a latency floor cannot
// overflow.
const infTime = Time(1) << 60

// ShardingStats counts the deterministic shape of a sharded run — every
// field is a pure function of seed, configuration and shard partition,
// never of worker count or thread timing.
type ShardingStats struct {
	// Shards is the partition size.
	Shards int
	// Rounds is the number of executed rounds; Events the total events
	// (deliveries + steps) across all shards and rounds.
	Rounds int
	Events int
	// CriticalEvents sums each round's largest per-shard event count: the
	// serialized length of the run under unbounded workers. The ratio
	// Events/CriticalEvents is the measured shard-parallelism of the
	// workload — the wall-clock speedup ceiling a perfectly balanced
	// multi-core pool could reach.
	CriticalEvents int
	// NullAdvances counts shard-rounds whose advancement bound exceeded
	// the global window edge (earliest pending event plus the global
	// floor): rounds where the per-link bounds provably admitted more
	// progress than one global window would have.
	NullAdvances int
	// BlockedShardRounds counts shard-rounds that had a next local event
	// but whose bound did not yet admit it; BlockedTime sums the
	// shortfall (next event minus bound) over them.
	BlockedShardRounds int
	BlockedTime        Time
}

// shardSend is one buffered outbound message awaiting the serial merge.
type shardSend struct {
	from slot
	out  Outbound
	at   Time
}

// shard owns a disjoint subset of the kernel's processes plus the
// transient per-round state of its local sub-simulation. It keeps no copy
// of kernel state: processes, crash flags and income buffers are read
// through the slots, arrivals popped from partition idx of the kernel's
// index. What it derives from them — its pending count and its slots'
// readiness cache entries — is rebuilt when a Run starts. Faults only
// change between engine runs, so those reads are race-free from worker
// goroutines.
type shard struct {
	k     *Kernel
	idx   int
	slots []slot // sorted by ID

	// pending counts the shard's up processes with a non-empty income
	// buffer, recounted when a Run starts and kept up to date by deliver
	// and step from then on; adopted is its value when the round began,
	// so the merge can settle the kernel's counter by the difference.
	pending   int
	adopted   int
	stepAt    []Time // the runner's readiness cache
	t         Time   // persistent local clock
	events    int
	sends     []shardSend
	delivered int  // messages delivered this round
	bound     Time // this round's advancement bound

	// refill is the SetRefill hook; refillIdx maps a kernel slot to the
	// index its process has in the hook's list, -1 for processes not on
	// it. Both are shared by every shard and read-only while rounds run.
	refill    func(int, Time)
	refillIdx []int
}

// NewLookaheadRunner partitions the kernel's current process set with
// shardOf (which must map every process to [0, nShards)) and returns a
// runner executing per-link conservative-lookahead sharded stepping on
// max(1, workers) goroutines. Workers=1 runs the identical schedule
// serially.
//
// The kernel must be in load mode (event recording disabled via
// SetTraceCap(-1)): shards execute off the global event path, so there is
// no meaningful global interleaving to record. The process set must not
// change for the runner's lifetime. Attaching re-buckets the kernel's
// arrival index once, one partition per shard; from then on every send
// lands in its destination shard's partition directly. The index, the
// income buffers and every counter stay the kernel's own, so between Runs
// — and after a budget-cut one — a fault, a snapshot or a serial scheduler
// finds the kernel whole, with nothing to hand back.
func NewLookaheadRunner(k *Kernel, shardOf func(ProcessID) int, nShards, workers int) (*ShardedRunner, error) {
	if nShards < 1 {
		return nil, fmt.Errorf("sim: sharded runner needs at least 1 shard, got %d", nShards)
	}
	if k.Recording() {
		return nil, fmt.Errorf("sim: sharded stepping requires load mode (SetTraceCap(-1)); full traces only exist for the serial schedulers")
	}
	workers = max(workers, 1)
	r := &ShardedRunner{
		k:          k,
		workers:    workers,
		delta:      max(k.latencyFloor, 1),
		shards:     make([]*shard, nShards),
		nProcs:     len(k.order),
		e:          make([]Time, nShards),
		prom:       make([]Time, nShards),
		bnd:        make([]Time, nShards),
		settled:    make([]bool, nShards),
		arrTop:     make([]*Message, nShards),
		shardReady: make([]bool, nShards),
		shardWake:  make([]Time, nShards),
		stepAt:     make([]Time, len(k.ids)),
		stats:      ShardingStats{Shards: nShards},
	}
	for i := range r.shards {
		r.shards[i] = &shard{k: k, idx: i, t: k.now, stepAt: r.stepAt}
	}
	// k.order is sorted, so every shard's process list is sorted too and
	// the shard-local scans break ties by process ID, like the kernel's
	// serial schedulers.
	part := make([]int32, len(k.order))
	for _, s := range k.order {
		pid := k.ids[s]
		si := shardOf(pid)
		if si < 0 || si >= nShards {
			return nil, fmt.Errorf("sim: process %s mapped to shard %d, want [0,%d)", pid, si, nShards)
		}
		part[s] = int32(si)
		r.shards[si].slots = append(r.shards[si].slots, s)
	}
	k.partition(nShards, part)
	r.buildFloors()
	return r, nil
}

// buildFloors fills the shard-pair bound matrix. Without per-link floor
// declarations every entry is the global floor; with them, the exact
// minimum over the links between each shard pair (a one-time O(P²) pass,
// only paid when per-link floors exist).
func (r *ShardedRunner) buildFloors() {
	S := len(r.shards)
	base := r.delta
	r.floors = make([][]Time, S)
	for i := range r.floors {
		row := make([]Time, S)
		for j := range row {
			row[j] = base
		}
		r.floors[i] = row
	}
	if len(r.k.linkFloor) == 0 {
		return
	}
	for i := range r.floors {
		for j := range r.floors[i] {
			if i != j {
				r.floors[i][j] = infTime
			}
		}
	}
	for from, si := range r.k.part {
		for to, sj := range r.k.part {
			if si == sj {
				continue
			}
			f := r.k.LinkLatencyFloor(Link{From: r.k.ids[from], To: r.k.ids[to]})
			if f < 1 {
				f = 1
			}
			if f < r.floors[si][sj] {
				r.floors[si][sj] = f
			}
		}
	}
}

// Stats returns the deterministic run-shape counters accumulated so far.
func (r *ShardedRunner) Stats() ShardingStats { return r.stats }

// SetRefill installs a hook called after every step of a process listed
// in pids, from inside the parallel window execution, with that process's
// index in pids and the shard-local clock. The driver lists its clients
// in both load regimes, to mark the stepped client so that it asks only
// those for finished results; the closed loop's hook also tops the client
// back up the moment a transaction completes — mid-window — instead of
// waiting for the round to end. The hook runs on worker goroutines: it
// must touch only state owned by the stepped process (the driver's
// per-client generators and marks qualify; anything kernel-global does
// not).
func (r *ShardedRunner) SetRefill(pids []ProcessID, f func(i int, at Time)) {
	idx := make([]int, len(r.k.ids))
	for s := range idx {
		idx[s] = -1
	}
	for i, pid := range pids {
		s, ok := r.k.slotOf[pid]
		if !ok {
			panic(fmt.Sprintf("sim: SetRefill(%s): unknown process", pid))
		}
		idx[s] = i
	}
	for _, sh := range r.shards {
		sh.refill, sh.refillIdx = f, idx
	}
}

// NotifyInvoked tells the runner about an external injection (the
// open-loop driver invoking a client) at the given instant: the owning
// shard's persistent clock is lifted to it so the injected work is never
// stepped before its scheduled arrival.
func (r *ShardedRunner) NotifyInvoked(pid ProcessID, at Time) {
	if s, ok := r.k.slotOf[pid]; ok {
		sh := r.shards[r.k.part[s]]
		sh.t = max(sh.t, at)
	}
}

// Floor returns the earliest shard-local clock: every step still to come
// happens strictly after it, whatever the driver does between Runs — a
// restart or heal can release held messages onto a shard whose clock lags
// the last round's earliest event, never behind that shard's own clock.
func (r *ShardedRunner) Floor() Time {
	floor := infTime
	for _, sh := range r.shards {
		floor = min(floor, sh.t)
	}
	return floor
}

// SetHorizon bounds the run at a virtual instant: no round starts at or
// past it (Run returns instead, handing control back to the driver's
// open-loop injection or fault schedule) and window ends / advancement bounds are clipped
// to it. The bound has window granularity, not event granularity: a shard
// draining a deliver→step chain that began before the horizon may push
// its local clock — and thus the kernel clock — a few StepCosts past it,
// so an arrival scheduled at the horizon is invoked at the first
// actionable instant at or after its scheduled one. The driver accounts
// queueing delay from the scheduled instant either way, so the lag lands
// in the measured queueing delay, deterministically. 0 disables the bound.
func (r *ShardedRunner) SetHorizon(t Time) { r.horizon = t }

// Run executes rounds until the system quiesces, the stop predicate
// returns true (checked between rounds — the sharded counterpart of
// sim.Run checking between events), the horizon is reached, or at least
// maxEvents events have executed. It returns the events executed. The
// event budget has round granularity: the run stops after the first
// round that crosses it, overshooting by at most the active shard
// count (each shard of a round is capped at an equal share of the
// remaining budget) — deterministically so.
//
// Run starts by reading every process as the kernel holds it (see
// refresh): invocations, faults and NotifyInvoked all happen between
// Runs. The stop predicate runs between rounds and must not change a
// process.
func (r *ShardedRunner) Run(stop func(*Kernel) bool, maxEvents int) int {
	if len(r.k.order) != r.nProcs {
		panic("sim: process set changed under a ShardedRunner")
	}
	r.refresh()
	n := 0
	for n < maxEvents {
		if stop != nil && stop(r.k) {
			return n
		}
		executed, more := r.round(maxEvents - n)
		n += executed
		if !more {
			return n
		}
	}
	return n
}

// refresh recounts every shard's pending inboxes and recomputes every
// readiness cache entry from the kernel as it stands: the one place the
// runner reads processes it has not just stepped.
func (r *ShardedRunner) refresh() {
	k := r.k
	for _, sh := range r.shards {
		sh.pending = 0
		for _, s := range sh.slots {
			if len(k.inbox[s]) > 0 && !k.crashed[s].down {
				sh.pending++
			}
			sh.refresh(s)
		}
	}
}

// runActive executes the active shards' windows — in parallel when there
// is both a pool and enough of them. Each shard gets an equal share of
// the remaining budget (at least one event), so a round overshoots the
// budget by at most the active shard count instead of a factor of it.
// The share is a pure function of round inputs — worker-independent like
// everything else.
func (r *ShardedRunner) runActive(active []*shard, budget int) {
	share := (budget + len(active) - 1) / len(active)
	if share < 1 {
		share = 1
	}
	if r.workers <= 1 || len(active) == 1 {
		for _, sh := range active {
			sh.run(share)
		}
		return
	}
	nw := r.workers
	if nw > len(active) {
		nw = len(active)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(active) {
					return
				}
				active[i].run(share)
			}
		}()
	}
	wg.Wait()
}

// merge is the serial commit phase: buffered sends enter the kernel in
// fixed shard order, then send order (IDs, link sequence numbers, latency
// draws from the single kernel RNG) — each straight into its destination
// shard's partition of the arrival index — the kernel's delivery and
// pending-inbox accounts are settled, its clock advances to the latest
// shard-local clock, and events are accounted.
func (r *ShardedRunner) merge(active []*shard) int {
	k := r.k
	total, crit := 0, 0
	newNow := k.now
	for _, sh := range active {
		for _, ps := range sh.sends {
			k.send(ps.from, ps.out, ps.at)
		}
		sh.sends = sh.sends[:0]
		k.deliveredMsgs += int64(sh.delivered)
		k.live -= sh.delivered
		sh.delivered = 0
		// Non-zero only when the budget ran out between a delivery and
		// the consuming step: the messages wait in the income buffer.
		k.pendingInboxes += sh.pending - sh.adopted
		total += sh.events
		if sh.events > crit {
			crit = sh.events
		}
		if sh.t > newNow {
			newNow = sh.t
		}
		sh.events = 0
	}
	k.AdvanceTo(newNow)
	k.compactTransit()
	// Load-mode event accounting, identical to what per-event record()
	// calls would have done.
	k.evSeq += int64(total)
	k.trace.Dropped += int64(total)

	r.stats.Rounds++
	r.stats.Events += total
	r.stats.CriticalEvents += crit
	return total
}

// round executes one per-link lookahead round. It returns the events
// executed and whether another round could do work.
//
//  1. Serial pre-scan: per shard, the earliest instant e_i it could act —
//     the minimum over its pending inboxes (now), its processes' readiness
//     cache entries (now for a Ready process, a Waker's declared instant),
//     and its earliest undelivered arrival, the top of its partition of
//     the kernel's index. The pending count and the cache carry over from
//     the previous round; Run refreshed both from the kernel as it stands
//     when it started, so whatever happened between Runs (a fault, a
//     restart swapping a process, an injection) is seen.
//  2. Promise fixpoint: shard i cannot send before
//     P_i = min(e_i, min_{j≠i}(P_j + floor[j→i])) — its own next event,
//     or the earliest instant another shard's message could trigger one.
//     Because the floors are positive this is a shortest-path problem
//     over the shard graph, solved exactly with one Dijkstra pass.
//  3. Per-shard advancement bound: no future message can reach shard i
//     with ReadyAt below bound_i = min_{j≠i}(P_j + floor[j→i]) — the
//     null-message guarantee. Every shard executes its own window
//     [clock_i, bound_i): deliveries strictly below the bound (in global
//     (ReadyAt, ID) order, so per-shard delivery order matches the serial
//     index), wake leaps strictly below the bound, Ready chains
//     unbounded.
//  4. The serial merge commits sends and advances the kernel.
//
// The globally earliest event always lies strictly below its shard's
// bound (bounds exceed min e_i by at least one positive floor), so every
// non-quiescent round makes progress and quiescence is detected exactly.
// Unlike classic null-message rings there is no Δ-at-a-time creep toward
// distant wakes: promises are next-EVENT times, not clocks, so an idle
// gap is crossed in a single round.
func (r *ShardedRunner) round(budget int) (int, bool) {
	k := r.k

	// Pre-scan: e_i = earliest instant shard i could act.
	minE := infTime
	for si, sh := range r.shards {
		e := infTime
		top := k.arrivals[si].top()
		r.arrTop[si] = top
		if top != nil {
			e = max(top.ReadyAt, sh.t)
		}
		ready, wake := false, infTime
		for _, s := range sh.slots {
			if at := r.stepAt[s]; at <= sh.t {
				ready = true
			} else if at < wake {
				wake = at
			}
		}
		r.shardReady[si], r.shardWake[si] = ready, wake
		sh.adopted = sh.pending
		if (sh.pending > 0 || r.shardReady[si]) && sh.t < e {
			e = sh.t
		}
		if r.shardWake[si] < e {
			e = r.shardWake[si]
		}
		r.e[si] = e
		if e < minE {
			minE = e
		}
	}
	if minE == infTime {
		return 0, false // quiescent
	}
	if r.horizon > 0 && minE >= r.horizon {
		return 0, false
	}
	r.computeBounds()

	// Activity and blocked accounting, decided serially from round inputs.
	windowEdge := minE + r.delta
	active := r.active[:0]
	for si, sh := range r.shards {
		bound := r.bnd[si]
		if r.horizon > 0 && bound > r.horizon {
			bound = r.horizon
		}
		sh.bound = bound
		top := r.arrTop[si]
		if sh.pending > 0 || r.shardReady[si] ||
			(top != nil && top.ReadyAt < bound) ||
			r.shardWake[si] < bound {
			active = append(active, sh)
			if bound > windowEdge {
				r.stats.NullAdvances++
			}
		} else if r.e[si] < infTime {
			gap := r.e[si] - bound
			if gap < 0 {
				gap = 0
			}
			r.stats.BlockedShardRounds++
			r.stats.BlockedTime += gap
		}
	}
	r.active = active
	if len(active) == 0 {
		// Unreachable while minE is below the horizon (the globally
		// earliest event is always admitted), kept as a defensive exit.
		return 0, false
	}
	r.runActive(active, budget)
	return r.merge(active), true
}

// computeBounds derives each shard's advancement bound from the next-event
// times in r.e: first the promise fixpoint over the shard graph (one
// Dijkstra pass — floors are positive, so settling in ascending promise
// order is exact), then bound_i as the earliest promised influence on i.
func (r *ShardedRunner) computeBounds() {
	S := len(r.shards)
	if S == 1 {
		// A single shard can never be affected from outside.
		r.bnd[0] = infTime
		return
	}
	copy(r.prom, r.e)
	for i := range r.settled {
		r.settled[i] = false
	}
	for it := 0; it < S; it++ {
		u, best := -1, infTime
		for i, s := range r.settled {
			if !s && r.prom[i] < best {
				u, best = i, r.prom[i]
			}
		}
		if u < 0 {
			break
		}
		r.settled[u] = true
		for v := 0; v < S; v++ {
			if v == u || r.settled[v] {
				continue
			}
			if nb := best + r.floors[u][v]; nb < r.prom[v] {
				r.prom[v] = nb
			}
		}
	}
	for i := 0; i < S; i++ {
		b := infTime
		for j := 0; j < S; j++ {
			if j == i {
				continue
			}
			if nb := r.prom[j] + r.floors[j][i]; nb < b {
				b = nb
			}
		}
		r.bnd[i] = b
	}
}

// run is the shard-local sub-simulation of one round: a discrete-event
// policy over the shard's processes only, on the shard's persistent
// clock, with deliveries popped from the shard's own partition of the
// arrival index and both deliveries and wake leaps admitted strictly
// below the shard's advancement bound. Of the kernel it touches only that
// partition and its own processes' slots.
func (sh *shard) run(budget int) {
	k, bound := sh.k, sh.bound
	arr := &k.arrivals[sh.idx]
	for sh.events < budget {
		// 1. Processes with pending input act first, in sorted ID order
		// (a crashed one keeps its buffer, unstepped, until restart).
		if sh.pending > 0 {
			for _, s := range sh.slots {
				if len(k.inbox[s]) > 0 && !k.crashed[s].down {
					sh.step(s)
					break
				}
			}
			continue
		}
		// 2. Deliveries already due at the local instant.
		if m := arr.top(); m != nil && m.ReadyAt < bound && m.ReadyAt <= sh.t {
			sh.deliver()
			continue
		}
		// 3. The first process whose readiness cache entry has come due
		// acts now; the others' entries give the earliest future wake.
		acted := false
		wake, waker := infTime, slot(0) // earliest declared wake, if any
		for _, s := range sh.slots {
			at := sh.stepAt[s]
			if at <= sh.t {
				sh.step(s)
				acted = true
				break
			}
			if at < wake {
				wake, waker = at, s
			}
		}
		if acted {
			continue
		}
		// 4. Nobody can act at this instant: advance the local clock to
		// the next useful one below the bound. Arrivals win ties so the
		// woken process sees every message due by its wake instant.
		if m := arr.top(); m != nil && m.ReadyAt < bound && m.ReadyAt <= wake {
			sh.deliver()
			continue
		}
		if wake < min(bound, infTime) {
			// The step itself costs StepCost, so the process runs at
			// exactly its wake instant.
			if wake-StepCost > sh.t {
				sh.t = wake - StepCost
			}
			sh.step(waker)
			continue
		}
		return // nothing more admissible under this round's bound
	}
}

// deliver pops the top of the shard's partition — the caller has checked
// it against the bound — and moves it into its income buffer. The message
// is marked gone here (shard-owned while the round runs); the kernel's
// delivery and live counts are settled at the merge.
func (sh *shard) deliver() {
	k := sh.k
	m := k.arrivals[sh.idx].pop()
	m.gone = true
	sh.delivered++
	if m.ReadyAt > sh.t {
		sh.t = m.ReadyAt
	}
	m.DeliveredAt = sh.t
	if len(k.inbox[m.to]) == 0 {
		sh.pending++
	}
	k.inbox[m.to] = append(k.inbox[m.to], m)
	sh.events++
}

// step executes one computation step of the process in slot s, copying
// its sends into the merge buffer before anything else runs (the process
// may reuse the returned slice). The income buffer is emptied in place
// and used again by the next deliveries (Process.Step may not keep the
// slice). The slot's readiness cache entry is refreshed last, after the
// refill hook may have invoked the process again.
func (sh *shard) step(s slot) {
	k := sh.k
	in := k.inbox[s]
	if len(in) > 0 {
		sh.pending--
	}
	sh.t += StepCost
	for _, o := range k.procs[s].Step(sh.t, in) {
		sh.sends = append(sh.sends, shardSend{from: s, out: o, at: sh.t})
	}
	clear(in)
	k.inbox[s] = in[:0]
	sh.events++
	if sh.refill != nil {
		if i := sh.refillIdx[s]; i >= 0 {
			sh.refill(i, sh.t)
		}
	}
	sh.refresh(s)
}

// refresh recomputes slot s's readiness cache entry: infTime when the
// process is down or not Ready, or when it is a Waker with no wake
// instant (it waits on a delivery); else the Waker's declared instant or,
// for any other process, the shard clock. Ready and WakeAt are functions
// of the process's own state (see Process.Ready), and WakeAt(t) =
// max(w, t), so an entry stays true until the process steps or is
// changed between Runs, and an entry at or below the clock means "can
// step now" however far the clock has moved since.
func (sh *shard) refresh(s slot) {
	k := sh.k
	p := k.procs[s]
	at := infTime
	switch w, waker := p.(Waker); {
	case k.crashed[s].down || !p.Ready():
	case !waker:
		at = sh.t
	default:
		if wt, useful := w.WakeAt(sh.t); useful {
			at = wt
		}
	}
	sh.stepAt[s] = at
}
