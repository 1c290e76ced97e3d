package ptest

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
)

// This file is the watched deployment (watched): every sweep run has a
// watched twin (see twin), and the random-schedule runs are watched
// themselves. It holds each process to the contracts that the engine and
// the driver rely on:
//
//   - ReadinessIsState: Ready and WakeAt are functions of the process's
//     own state (sim.Process.Ready, sim.Waker), so they change only
//     through its steps and invokes, and WakeAt(later) = max(w, later);
//     a client also makes results only inside Step, because the driver
//     takes them only from clients that stepped.
//   - RoundContract: the client's requests and replies keep rounds.
//   - InboxNotRetained: the inbox slice handed to Step and its envelopes
//     are the engine's, which refills the slice and reuses the envelopes;
//     a process keeps neither. Both are overwritten with poison the
//     moment Step returns, so a model that kept one reads poison and the
//     twin parts ways with the plain run.
//   - ReadsAboveHorizon: no server reads below its store's horizon
//     (store.Horizon), where it may miss a version the store dropped.

// readiness is what a process answered to Ready and WakeAt(at).
type readiness struct {
	at    sim.Time
	ready bool
	wake  sim.Time
	ok    bool
}

func ask(p sim.Process, at sim.Time) readiness {
	wake, ok := wakeAt(p, at)
	return readiness{at: at, ready: p.Ready(), wake: wake, ok: ok}
}

// wakeAt passes a Waker's declaration on. A process that declares nothing
// acts as soon as it is Ready, which is what (now, true) says.
func wakeAt(p sim.Process, now sim.Time) (sim.Time, bool) {
	if w, ok := p.(sim.Waker); ok {
		return w.WakeAt(now)
	}
	return now, true
}

// watch holds one process's last recorded answers; log keeps the first
// contradiction over every watched process of a run (one stepping
// goroutine: the run's Workers is 1).
type watch struct {
	log  *error
	last readiness
	set  bool
}

// record notes p's answers at instant at, right after a Step or Invoke.
func (w *watch) record(p sim.Process, at sim.Time) {
	w.last, w.set = ask(p, at), true
}

// check requires p to answer at instant now as it did when recorded,
// with WakeAt(now) = max(w, now) for the recorded declaration w.
func (w *watch) check(p sim.Process, now sim.Time, when string) {
	if !w.set {
		return
	}
	got, was := ask(p, now), w.last
	if got.ready == was.ready && got.ok == was.ok && (!got.ok || got.wake == max(was.wake, now)) {
		return
	}
	w.fail(fmt.Errorf("readiness changed outside the process's own steps and invokes: %s %s at %d: Ready %v, WakeAt (%d, %v); after its last step or invoke at %d: Ready %v, WakeAt (%d, %v)",
		p.ID(), when, now, got.ready, got.wake, got.ok, was.at, was.ready, was.wake, was.ok))
}

// fail logs err unless an earlier contradiction is logged already.
func (w *watch) fail(err error) {
	if *w.log == nil {
		*w.log = err
	}
}

func (w *watch) clone() *watch { c := *w; return &c }

type poisonPayload struct{}

func (poisonPayload) Kind() string { return "poison" }

// poison is what a watched process finds in its inbox slice once Step
// has returned, and what its delivered envelopes then read.
var poison = &sim.Message{From: "poison", To: "poison", LinkSeq: -1, Payload: poisonPayload{}, SentAt: -1, DeliveredAt: -1}

// step checks p's readiness, steps it, then overwrites the inbox slice
// and every envelope in it — all of an envelope that a model could read
// except ID and ReadyAt, the keys the kernel's index still orders it by —
// and records p's readiness again.
func (w *watch) step(p sim.Process, now sim.Time, inbox []*sim.Message) []sim.Outbound {
	w.check(p, now, "at Step")
	out := p.Step(now, inbox)
	for i, m := range inbox {
		m.From, m.To, m.LinkSeq, m.Payload = poison.From, poison.To, poison.LinkSeq, poison.Payload
		m.SentAt, m.DeliveredAt = poison.SentAt, poison.DeliveredAt
		inbox[i] = poison
	}
	w.record(p, now)
	return out
}

// readPoint passes a ReadPointer's point on.
func readPoint(p sim.Process, now sim.Time) (store.Horizon, bool) {
	if r, ok := p.(protocol.ReadPointer); ok {
		return r.ReadPoint(now)
	}
	return store.Horizon{}, false
}

// watchedServer is a watched server. It passes its store on, which a
// replacement adopts and catches up (protocol.StoreCarrier), and logs the
// first step after which its store read below the horizon.
type watchedServer struct {
	sim.Process
	w     *watch
	below *error
}

func (s *watchedServer) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	out := s.w.step(s.Process, now, inbox)
	if c, ok := s.Process.(protocol.StoreCarrier); ok && c.ShardStore().Below > 0 && *s.below == nil {
		*s.below = fmt.Errorf("%s read below its store's horizon by %d", s.ID(), now)
	}
	return out
}
func (s *watchedServer) Clone() sim.Process {
	return &watchedServer{s.Process.Clone(), s.w.clone(), s.below}
}
func (s *watchedServer) WakeAt(now sim.Time) (sim.Time, bool)       { return wakeAt(s.Process, now) }
func (s *watchedServer) ReadPoint(t sim.Time) (store.Horizon, bool) { return readPoint(s.Process, t) }
func (s *watchedServer) ShardStore() *store.Store {
	return s.Process.(protocol.StoreCarrier).ShardStore()
}

// watchedClient is a watched client, which also records after Invoke
// and checks after TakeFinished: TakeFinished hands out nothing new
// unless the client stepped since the previous call. Its requests and
// replies go through rounds.
type watchedClient struct {
	protocol.Client
	w       *watch
	r       *rounds
	stepped bool
}

func (c *watchedClient) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	cur, _ := c.Client.(current)
	c.r.received(c.ID(), cur, inbox)
	out := c.w.step(c.Client, now, inbox)
	c.r.sent(out)
	c.stepped = true
	return out
}

func (c *watchedClient) Invoke(t *model.Txn) model.TxnID {
	id := c.Client.Invoke(t)
	c.w.record(c.Client, c.w.last.at)
	return id
}

func (c *watchedClient) TakeFinished(dst []*model.Result) []*model.Result {
	n := len(dst)
	dst = c.Client.TakeFinished(dst)
	if len(dst) > n && !c.stepped {
		c.w.fail(fmt.Errorf("%s: TakeFinished handed out %s with no step since the previous call", c.ID(), dst[n].Txn.ID))
	}
	c.stepped = false
	c.w.check(c.Client, c.w.last.at, "after TakeFinished")
	return dst
}

func (c *watchedClient) Clone() sim.Process {
	return &watchedClient{c.Client.Clone().(protocol.Client), c.w.clone(), c.r.clone(), c.stepped}
}
func (c *watchedClient) WakeAt(now sim.Time) (sim.Time, bool)       { return wakeAt(c.Client, now) }
func (c *watchedClient) ReadPoint(t sim.Time) (store.Horizon, bool) { return readPoint(c.Client, t) }

// watching deploys p with every process watched: readiness breaches
// into ready, round breaches into rounds, reads below a horizon into
// below, each client's open requests into clients (the ones NewClient
// built; a snapshot's are its own).
type watching struct {
	protocol.Protocol
	ready, rounds, below *error
	clients              map[sim.ProcessID]*rounds
}

func watched(p protocol.Protocol) watching {
	return watching{Protocol: p, ready: new(error), rounds: new(error), below: new(error), clients: map[sim.ProcessID]*rounds{}}
}

func (p watching) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &watchedServer{p.Protocol.NewServer(id, pl), &watch{log: p.ready}, p.below}
}

func (p watching) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	r := &rounds{log: p.rounds, fat: !p.Claims().OneValue, open: map[awaited][][]string{}}
	p.clients[id] = r
	return &watchedClient{Client: p.Protocol.NewClient(id, pl), w: &watch{log: p.ready}, r: r}
}

// A breach is the first offence against one of the watched contracts.
type breach struct {
	contract string
	err      error
}

func (b *breach) Error() string { return b.contract + ": " + b.err.Error() }

// broken returns the first contract the run broke, readiness before
// rounds; open, when not nil, are clients that must have had every
// request answered by now.
func (p watching) broken(open map[sim.ProcessID]*rounds) error {
	err := unanswered(open)
	switch {
	case *p.ready != nil:
		return &breach{"ReadinessIsState", *p.ready}
	case *p.rounds != nil:
		return &breach{"RoundContract", *p.rounds}
	case err != nil:
		return &breach{"RoundContract", err}
	case *p.below != nil:
		return &breach{"ReadsAboveHorizon", *p.below}
	}
	return nil
}
