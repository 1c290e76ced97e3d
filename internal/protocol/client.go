package protocol

import (
	"slices"

	"repro/internal/model"
	"repro/internal/sim"
)

// Core is the common client machinery embedded by every protocol client:
// transaction lifecycle, per-client sequence numbers, result collection
// and timing. Protocol clients implement Step around it.
//
// The core pipelines invocations: one transaction is *active* (being
// executed by the protocol state machine) at a time, and further
// invocations queue behind it in submission order. When the active
// transaction finishes, the next queued one becomes active and the
// client's Ready() turns true again, so schedulers pick it up without any
// protocol-specific code. Protocol clients only ever see the active
// transaction (Current/Result); the queue is invisible to them.
type Core struct {
	id     sim.ProcessID
	pl     *Placement
	seq    int
	cur    *model.Txn
	curRes *model.Result
	queue  []*model.Txn // invoked, waiting for the active txn to finish
	// finished holds completed results (in completion order, which is
	// per-client program order) until TakeFinished hands them over: a
	// result has one owner, the core until taken and the taker after.
	finished []*model.Result
	// started marks that the first step of the active transaction has
	// run (the client has sent its first round).
	started bool
	rounds  int
	// pending counts the replies the current round still awaits.
	pending int
	// out is the send buffer: this step's requests, until Sent.
	out []sim.Outbound
	// The protocol's Name and Claims().MultiWriteTxn, for Starting.
	name       string
	multiWrite bool
}

// NewCore initializes the embedded client core of protocol p's client.
func NewCore(id sim.ProcessID, pl *Placement, p Protocol) Core {
	return Core{id: id, pl: pl, name: p.Name(), multiWrite: p.Claims().MultiWriteTxn}
}

// ID implements sim.Process.
func (c *Core) ID() sim.ProcessID { return c.id }

// Placement returns the deployment placement.
func (c *Core) Placement() *Placement { return c.pl }

// Invoke implements Client. If a transaction is already active the new one
// queues behind it and starts automatically when its predecessors finish.
func (c *Core) Invoke(t *model.Txn) model.TxnID {
	c.seq++
	if t.ID.IsZero() {
		t.ID = model.TxnID{Client: string(c.id), Seq: c.seq}
	}
	if c.cur != nil {
		c.queue = append(c.queue, t)
		return t.ID
	}
	c.activate(t)
	return t.ID
}

// activate makes t the active transaction.
func (c *Core) activate(t *model.Txn) {
	c.cur = t
	c.curRes = &model.Result{Txn: t, Invoked: -1}
	if len(t.ReadSet) > 0 {
		c.curRes.Values = make([]model.Value, len(t.ReadSet))
	}
	c.started = false
	c.rounds = 0
}

// Busy implements Client: a transaction is active (the queue may hold more).
func (c *Core) Busy() bool { return c.cur != nil }

// Outstanding implements Client: active plus queued invocations.
func (c *Core) Outstanding() int {
	n := len(c.queue)
	if c.cur != nil {
		n++
	}
	return n
}

// Current returns the active transaction (nil when idle).
func (c *Core) Current() *model.Txn { return c.cur }

// Result returns the active transaction's accumulating result.
func (c *Core) Result() *model.Result { return c.curRes }

// Finished implements Client: the completed, not yet taken result of
// transaction id, nil if there is none.
func (c *Core) Finished(id model.TxnID) *model.Result {
	for i := len(c.finished) - 1; i >= 0; i-- {
		if c.finished[i].Txn.ID == id {
			return c.finished[i]
		}
	}
	return nil
}

// TakeFinished implements Client: it appends the results completed since
// the previous call to dst, in completion order, and returns dst.
func (c *Core) TakeFinished(dst []*model.Result) []*model.Result {
	dst = append(dst, c.finished...)
	clear(c.finished) // the taker owns them now; keep no reference
	c.finished = c.finished[:0]
	return dst
}

// Starting records the start of the active transaction on the first step
// after it became active and reports whether this step is that first step.
// It refuses, reporting false, a multi-object write the protocol does not
// claim, then any read-write transaction; the next queued transaction
// becomes active unstarted, so the step sends nothing.
func (c *Core) Starting(now sim.Time) bool {
	if c.cur == nil || c.started {
		return false
	}
	c.started = true
	res, t := c.curRes, c.cur
	res.Invoked = int64(now)
	switch {
	case !c.multiWrite && len(t.Writes) > 1 && len(t.WriteSet()) > 1:
		res.Err = c.name + ": multi-object write transactions unsupported"
	case len(t.Writes) > 0 && len(t.ReadSet) > 0:
		res.Err = c.name + ": read-write transactions unsupported"
	default:
		return true
	}
	res.Completed = int64(now)
	c.complete(res)
	return false
}

// Started reports whether the active transaction's first step has run.
func (c *Core) Started() bool { return c.cur != nil && c.started }

// Ready implements sim.Process: the active transaction has not taken its
// first step yet. After that a client steps only on replies.
func (c *Core) Ready() bool { return c.Busy() && !c.Started() }

// Send queues a request of the active transaction in the send buffer and
// counts the reply the current round awaits for it. A send while no reply
// is pending opens a new round (Result.Rounds).
func (c *Core) Send(to sim.ProcessID, p TxnPayload) {
	if c.pending == 0 {
		c.rounds++
	}
	c.pending++
	c.out = append(c.out, sim.Outbound{To: to, Payload: p})
}

// Sent hands out the send buffer, this step's requests, and empties it
// for the next step: a client's Step ends with return c.Sent(). The
// buffer is reused, which sim.Process allows: the engine copies the
// returned slice before the process steps again.
func (c *Core) Sent() []sim.Outbound { return takeSent(&c.out) }

// takeSent returns *buf and truncates it, keeping its capacity.
func takeSent(buf *[]sim.Outbound) []sim.Outbound {
	out := *buf
	*buf = out[:0]
	return out
}

// Reply reports whether p answers the active transaction and, if it does,
// counts it against the current round.
func (c *Core) Reply(p TxnPayload) bool {
	if c.cur == nil || p.Txn() != c.cur.ID {
		return false
	}
	c.pending--
	return true
}

// RoundDone reports whether the active transaction has started and every
// reply its current round awaits has arrived.
func (c *Core) RoundDone() bool { return c.Started() && c.pending == 0 }

// Rounds returns the number of rounds the active transaction has opened.
func (c *Core) Rounds() int { return c.rounds }

// complete records res and activates the next queued transaction, if any.
func (c *Core) complete(res *model.Result) {
	c.finished = append(c.finished, res)
	c.cur, c.curRes = nil, nil
	c.started = false
	if len(c.queue) > 0 {
		next := c.queue[0]
		c.queue = c.queue[1:]
		c.activate(next)
	}
}

// Finish completes the active transaction with the accumulated values.
func (c *Core) Finish(now sim.Time) *model.Result {
	if c.cur == nil {
		panic("protocol: Finish with no transaction in flight")
	}
	res := c.curRes
	res.Completed = int64(now)
	res.Rounds = c.rounds
	c.complete(res)
	return res
}

// CloneCore deep-copies the core (for Process.Clone implementations).
func (c *Core) CloneCore() Core {
	cp := *c
	if c.cur != nil {
		cp.cur = c.cur.Clone()
	}
	if c.curRes != nil {
		r := *c.curRes
		r.Txn = cp.cur
		r.Values = slices.Clone(c.curRes.Values)
		cp.curRes = &r
	}
	// Always detach the queue: even an empty slice may share backing
	// capacity with the original, and appends on both sides would then
	// overwrite each other's queued transactions.
	cp.queue = nil
	for _, t := range c.queue {
		cp.queue = append(cp.queue, t.Clone())
	}
	// Completed results are immutable; a slice copy suffices.
	cp.finished = append([]*model.Result(nil), c.finished...)
	// The send buffer is never shared: the original's last Sent() slice
	// stays the engine's to copy.
	cp.out = nil
	return cp
}
