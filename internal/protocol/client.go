package protocol

import (
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
}

// NewCore initializes the embedded client core.
func NewCore(id sim.ProcessID, pl *Placement) Core {
	return Core{id: id, pl: pl}
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
	c.curRes = &model.Result{Txn: t, Values: make(map[string]model.Value), Invoked: -1}
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

// TakeFinished implements Client: it drains the results completed since
// the previous call, in completion order.
func (c *Core) TakeFinished() []*model.Result {
	out := c.finished
	c.finished = nil
	return out
}

// Starting records the start of the active transaction on the first step
// after it became active and reports whether this step is that first step.
func (c *Core) Starting(now sim.Time) bool {
	if c.cur == nil || c.started {
		return false
	}
	c.started = true
	c.curRes.Invoked = int64(now)
	return true
}

// Started reports whether the active transaction's first step has run.
func (c *Core) Started() bool { return c.cur != nil && c.started }

// SentRound counts a request-sending round (for Result.Rounds bookkeeping).
func (c *Core) SentRound() { c.rounds++ }

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

// Reject completes the active transaction immediately with an error (used
// for unsupported transaction shapes, e.g. multi-object writes on systems
// without write transactions).
func (c *Core) Reject(now sim.Time, why string) *model.Result {
	if c.cur == nil {
		panic("protocol: Reject with no transaction in flight")
	}
	res := c.curRes
	if res.Invoked < 0 {
		res.Invoked = int64(now)
	}
	res.Err = why
	res.Completed = int64(now)
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
		r.Values = make(map[string]model.Value, len(c.curRes.Values))
		for k, v := range c.curRes.Values {
			r.Values[k] = v
		}
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
	return cp
}

// RejectsMultiWrite reports whether the transaction is a multi-object
// write transaction, which protocols without the W property must reject.
func RejectsMultiWrite(t *model.Txn) bool { return len(t.WriteSet()) > 1 }
