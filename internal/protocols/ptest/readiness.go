package ptest

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/workload"
)

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

// watchedServer checks the server it wraps at every Step's entry.
type watchedServer struct {
	sim.Process
	w *watch
}

func (s *watchedServer) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	s.w.check(s.Process, now, "at Step")
	out := s.Process.Step(now, inbox)
	s.w.record(s.Process, now)
	return out
}
func (s *watchedServer) Clone() sim.Process                   { return &watchedServer{s.Process.Clone(), s.w.clone()} }
func (s *watchedServer) WakeAt(now sim.Time) (sim.Time, bool) { return wakeAt(s.Process, now) }

// watchedClient is the same for a client, which also records after
// Invoke and checks after TakeFinished. It also holds the client to the
// contract the driver's take relies on: results are made only inside
// Step, so TakeFinished hands out nothing new unless the client stepped
// since the previous call.
type watchedClient struct {
	protocol.Client
	w       *watch
	stepped bool
}

func (c *watchedClient) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	c.w.check(c.Client, now, "at Step")
	out := c.Client.Step(now, inbox)
	c.w.record(c.Client, now)
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
	return &watchedClient{c.Client.Clone().(protocol.Client), c.w.clone(), c.stepped}
}
func (c *watchedClient) WakeAt(now sim.Time) (sim.Time, bool) { return wakeAt(c.Client, now) }

// watching deploys p with every process watched into one log.
type watching struct {
	protocol.Protocol
	log *error
}

func (p watching) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &watchedServer{p.Protocol.NewServer(id, pl), &watch{log: p.log}}
}

func (p watching) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &watchedClient{Client: p.Protocol.NewClient(id, pl), w: &watch{log: p.log}}
}

// readinessViolation holds the model to the contract the engine's
// readiness cache relies on (sim.Process.Ready, sim.Waker): Ready and
// WakeAt are functions of the process's own state, so they change only
// through its steps and invokes, and WakeAt(later) = max(w, later).
// Every process of a closed-loop and an open-loop cell is watched: its
// answers are recorded after each Step and Invoke, and must be the same
// at the entry of its next Step and after each TakeFinished. A client is
// also held to finishing transactions only inside Step, which the
// driver's take relies on: it asks only the clients that stepped. It
// returns the first contradiction, nil when there is none.
func readinessViolation(p protocol.Protocol, e Expect) error {
	srv, ops := e.size()
	for _, rate := range []float64{0, loadRate} {
		var violation error
		if _, err := driver.Run(watching{p, &violation}, driver.Config{
			Clients: 8, Txns: 96, Mix: workload.Balanced(), Seed: 11,
			Servers: srv, ObjectsPerServer: ops, Rate: rate,
		}); err != nil {
			return fmt.Errorf("rate %v: %v", rate, err)
		}
		if violation != nil {
			return fmt.Errorf("rate %v: %v", rate, violation)
		}
	}
	return nil
}
