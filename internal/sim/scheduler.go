package sim

import "strconv"

// ActionKind classifies scheduler decisions.
type ActionKind uint8

// Scheduler action kinds.
const (
	ActDeliver ActionKind = iota
	ActStep
)

// Action is a single scheduling decision: deliver a specific message or
// step a specific process.
type Action struct {
	Kind ActionKind
	Msg  int64     // for ActDeliver
	Proc ProcessID // for ActStep
}

// Scheduler decides the next event of an execution; it is the adversary of
// the paper's model. Next returns false to stop the run.
type Scheduler interface {
	Next(k *Kernel) (Action, bool)
}

// Apply executes one action against the kernel.
func Apply(k *Kernel, a Action) {
	switch a.Kind {
	case ActDeliver:
		k.Deliver(a.Msg)
	case ActStep:
		k.StepProcess(a.Proc)
	}
}

// Run drives the kernel with sched until the scheduler stops, the optional
// stop predicate returns true, or maxEvents events have executed. It
// returns the number of events executed.
func Run(k *Kernel, sched Scheduler, stop func(*Kernel) bool, maxEvents int) int {
	n := 0
	for n < maxEvents {
		if stop != nil && stop(k) {
			return n
		}
		a, ok := sched.Next(k)
		if !ok {
			return n
		}
		Apply(k, a)
		n++
	}
	return n
}

// Restriction limits which processes may act. A nil Restriction allows
// everything. It implements the paper's "executes solo" runs: only the
// writing client and the servers take steps, and only messages between
// allowed processes are delivered.
type Restriction struct {
	allowed map[ProcessID]bool
}

// Restrict builds a Restriction allowing only the listed processes.
func Restrict(ids ...ProcessID) *Restriction {
	r := &Restriction{allowed: make(map[ProcessID]bool, len(ids))}
	for _, id := range ids {
		r.allowed[id] = true
	}
	return r
}

// AllowsProc reports whether the process may take steps.
func (r *Restriction) AllowsProc(id ProcessID) bool {
	return r == nil || r.allowed[id]
}

// AllowsMsg reports whether the message may be delivered: both its source
// and its destination must be allowed processes.
func (r *Restriction) AllowsMsg(m *Message) bool {
	return r == nil || (r.allowed[m.From] && r.allowed[m.To])
}

// enabled lists the currently enabled actions under a restriction, in a
// deterministic order: deliveries in send order first, then steps of
// processes with pending inboxes, then steps of Ready processes. It reads
// kernel state directly (no per-event copies or re-sorting; k.order is
// maintained sorted).
func enabled(k *Kernel, r *Restriction) []Action {
	var acts []Action
	for _, m := range k.transit {
		if !m.gone && !m.held && r.AllowsMsg(m) {
			acts = append(acts, Action{Kind: ActDeliver, Msg: m.ID})
		}
	}
	for _, s := range k.order {
		if k.canStep(s, r) && len(k.inbox[s]) > 0 {
			acts = append(acts, Action{Kind: ActStep, Proc: k.ids[s]})
		}
	}
	for _, s := range k.order {
		if k.canStep(s, r) && len(k.inbox[s]) == 0 && k.procs[s].Ready() {
			acts = append(acts, Action{Kind: ActStep, Proc: k.ids[s]})
		}
	}
	return acts
}

// canStep reports whether the process in slot s is up and allowed by r.
func (k *Kernel) canStep(s slot, r *Restriction) bool {
	return !k.crashed[s].down && r.AllowsProc(k.ids[s])
}

// firstPendingInbox returns the first process (in sorted ID order) allowed
// by r whose income buffer is non-empty. The kernel's pending-inbox
// counter short-circuits the scan when nothing is pending.
func firstPendingInbox(k *Kernel, r *Restriction) (ProcessID, bool) {
	if k.pendingInboxes == 0 {
		return "", false
	}
	for _, s := range k.order {
		if len(k.inbox[s]) > 0 && k.canStep(s, r) {
			return k.ids[s], true
		}
	}
	return "", false
}

// RoundRobin is a fair deterministic scheduler: it prefers stepping
// processes that have pending input, then delivers the oldest in-transit
// message, then steps Ready processes (in load mode leaping the idle
// stretch a Waker declares, see leapIdle). Within a restriction it drains
// the system to quiescence.
type RoundRobin struct {
	Only *Restriction
}

// Next implements Scheduler.
func (s *RoundRobin) Next(k *Kernel) (Action, bool) {
	if id, ok := firstPendingInbox(k, s.Only); ok {
		return Action{Kind: ActStep, Proc: id}, true
	}
	for _, m := range k.transit {
		if !m.gone && !m.held && s.Only.AllowsMsg(m) {
			return Action{Kind: ActDeliver, Msg: m.ID}, true
		}
	}
	for _, o := range k.order {
		if k.canStep(o, s.Only) && k.procs[o].Ready() {
			k.leapIdle(k.procs[o])
			return Action{Kind: ActStep, Proc: k.ids[o]}, true
		}
	}
	return Action{}, false
}

// leapIdle spares a load-mode run (nothing is recorded) the no-op steps
// RoundRobin is about to spin through: when p, about to take an
// empty-inbox step, declares via Waker that only a future instant is
// useful, each step before it would cost StepCost, count one event and
// change nothing else — so the clock and the event count jump there
// directly, as ShardedRunner's merge accounts for a round. Traced runs
// keep every step: the proof machinery reads them.
func (k *Kernel) leapIdle(p Process) {
	w, ok := p.(Waker)
	if !ok || k.Recording() {
		return
	}
	if wake, useful := w.WakeAt(k.now); useful && wake-StepCost > k.now {
		skipped := int64((wake - StepCost - k.now) / StepCost)
		k.now = wake - StepCost
		k.evSeq += skipped
		k.trace.Dropped += skipped
	}
}

// Random chooses uniformly among enabled actions using its own seeded RNG,
// modelling an arbitrary (but reproducible) asynchronous adversary.
type Random struct {
	Rng  *RNG
	Only *Restriction
}

// NewRandom returns a Random scheduler with the given seed.
func NewRandom(seed int64) *Random { return &Random{Rng: NewRNG(seed)} }

// Next implements Scheduler.
func (s *Random) Next(k *Kernel) (Action, bool) {
	acts := enabled(k, s.Only)
	if len(acts) == 0 {
		return Action{}, false
	}
	return acts[s.Rng.Intn(len(acts))], true
}

// Waker is optionally implemented by processes whose Ready() may be
// waiting only for virtual time to pass (reads parked behind a safe-time
// rule, commit-wait). WakeAt returns the earliest virtual instant at
// which an empty-inbox step would make progress; ok == false means no
// purely time-driven work is pending — progress needs a message delivery
// first, so stepping the process before one arrives is a no-op. The
// sharded runner and — in load mode — RoundRobin use it to leap the clock
// to the wake instant instead of spinning 1µs Ready steps through the
// idle stretch.
type Waker interface {
	WakeAt(now Time) (wake Time, ok bool)
}

// Scripted replays a fixed sequence of actions, used by the adversary's
// replay engine. Actions reference messages by (link, seq) so the script
// survives filtered re-executions.
type Scripted struct {
	Steps []ScriptStep
	pos   int
	// Err records the first divergence (a referenced message that does
	// not exist); the run stops there.
	Err error
}

// ScriptStep is one scripted event.
type ScriptStep struct {
	Kind ActionKind
	Proc ProcessID // for ActStep
	Link Link      // for ActDeliver
	Seq  int64     // for ActDeliver
}

// Next implements Scheduler.
func (s *Scripted) Next(k *Kernel) (Action, bool) {
	if s.Err != nil || s.pos >= len(s.Steps) {
		return Action{}, false
	}
	st := s.Steps[s.pos]
	s.pos++
	if st.Kind == ActStep {
		return Action{Kind: ActStep, Proc: st.Proc}, true
	}
	m := k.FindInTransit(st.Link, st.Seq)
	if m == nil {
		s.Err = &DivergenceError{Link: st.Link, Seq: st.Seq, Pos: s.pos - 1}
		return Action{}, false
	}
	return Action{Kind: ActDeliver, Msg: m.ID}, true
}

// DivergenceError reports that a scripted replay referenced a message that
// was never sent — the replayed execution diverged from the recording,
// meaning the process behaviour was not indistinguishable.
type DivergenceError struct {
	Link Link
	Seq  int64
	Pos  int
}

func (e *DivergenceError) Error() string {
	return "sim: replay diverged at step " + strconv.Itoa(e.Pos) + ": missing " + e.Link.String()
}

// DrainRestricted runs round-robin under the restriction until quiescence
// of the allowed sub-system or maxEvents. It returns the events executed.
func DrainRestricted(k *Kernel, r *Restriction, maxEvents int) int {
	return Run(k, &RoundRobin{Only: r}, nil, maxEvents)
}

// Drain runs the whole system round-robin to quiescence (or maxEvents).
func Drain(k *Kernel, maxEvents int) int {
	return DrainRestricted(k, nil, maxEvents)
}
