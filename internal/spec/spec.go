// Package spec measures the fast-read-only-transaction sub-properties of
// Definition 4 from execution traces, rather than trusting a protocol's
// claims: rounds per read-only transaction, written values per
// server→client message (per object), and whether servers answer read
// requests in the computation step that receives them (non-blocking /
// one-roundtrip). Table 1 of the paper is regenerated from these
// measurements plus consistency checks on recorded histories.
package spec

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Measurement is what a single transaction's trace shows.
type Measurement struct {
	Txn       model.TxnID
	Completed bool
	// Rounds counts the client steps that sent at least one request
	// (read or write) belonging to the transaction: a one-round
	// transaction has Rounds == 1.
	Rounds int
	// MaxValuesPerObject is the largest number of written values for a
	// single object carried by any single server→client response.
	// Definition 4 requires ≤ 1.
	MaxValuesPerObject int
	// MaxValuesPerMsg is the largest total number of written values in
	// any single server→client response (informational; the fat-metadata
	// design of §3.4 inflates this, not MaxValuesPerObject).
	MaxValuesPerMsg int
	// ForeignValues reports that some response carried a value for an
	// object the sending server does not store — forbidden by the
	// general one-value property (Definition 5, 2a); the fat-metadata
	// design violates exactly this.
	ForeignValues bool
	// Deferred reports that some server answered a read request in a
	// later computation step than the one receiving it (blocking), or
	// never answered although the transaction completed via other means.
	Deferred bool
	// ServerSteps is the largest number of computation steps any single
	// server spent between receiving this transaction's first request
	// and sending its (final) response to the client.
	ServerSteps int
}

// FastROT reports whether the measured transaction was fast per
// Definition 4.
func (m Measurement) FastROT() bool {
	return m.Completed && m.Rounds <= 1 && m.MaxValuesPerObject <= 1 &&
		!m.ForeignValues && !m.Deferred
}

func (m Measurement) String() string {
	return fmt.Sprintf("txn=%s rounds=%d vals/obj=%d vals/msg=%d deferred=%v done=%v",
		m.Txn, m.Rounds, m.MaxValuesPerObject, m.MaxValuesPerMsg, m.Deferred, m.Completed)
}

// Measure analyzes the trace window [from, to) of the kernel for the given
// transaction. clientID is the invoking client; pl gives the server set
// and object placement (for foreign-value detection). As in Definition 4,
// a message of the transaction on a clientID → server link is a request
// and one on a server → clientID link a response.
func Measure(k *sim.Kernel, from, to int, tid model.TxnID, clientID sim.ProcessID, pl *protocol.Placement) Measurement {
	srv := make(map[sim.ProcessID]bool)
	for _, s := range pl.Servers() {
		srv[s] = true
	}
	m := Measurement{Txn: tid}

	// pendingReq[s] counts requests of this txn consumed by server s that
	// have not yet been answered; stepsSince[s] counts the server's steps
	// since the first unanswered request arrived.
	pendingReq := make(map[sim.ProcessID]int)
	stepsSince := make(map[sim.ProcessID]int)

	events := k.Trace().Events
	if to > len(events) {
		to = len(events)
	}
	if from < 0 {
		from = 0
	}
	for _, ev := range events[from:to] {
		if ev.Kind != sim.EvStep {
			continue
		}
		if ev.Proc == clientID {
			sentReq := false
			for _, ref := range ev.Sent {
				if srv[ref.Link.To] && ofTxn(k, ref.ID, tid) {
					sentReq = true
				}
			}
			if sentReq {
				m.Rounds++
			}
			continue
		}
		if !srv[ev.Proc] {
			continue
		}
		// Server step: count consumed requests and sent responses of tid.
		consumedReq, sentResp := 0, 0
		for _, ref := range ev.Consumed {
			if ref.Link.From == clientID && ofTxn(k, ref.ID, tid) {
				consumedReq++
			}
		}
		for _, ref := range ev.Sent {
			if ref.Link.To != clientID || !ofTxn(k, ref.ID, tid) {
				continue
			}
			sentResp++
			if vc, carries := k.PayloadOf(ref.ID).(protocol.ValueCarrier); carries {
				perObj := make(map[string]int)
				total := 0
				for _, vr := range vc.CarriedValues() {
					if vr.Value == model.Bottom {
						continue // ⊥ placeholders are not written values
					}
					if !pl.Hosts(ev.Proc, vr.Object) {
						m.ForeignValues = true
					}
					perObj[vr.Object]++
					total++
				}
				for _, n := range perObj {
					if n > m.MaxValuesPerObject {
						m.MaxValuesPerObject = n
					}
				}
				if total > m.MaxValuesPerMsg {
					m.MaxValuesPerMsg = total
				}
			}
		}
		// Blocking bookkeeping.
		if pendingReq[ev.Proc] > 0 {
			stepsSince[ev.Proc]++
			if stepsSince[ev.Proc] > m.ServerSteps {
				m.ServerSteps = stepsSince[ev.Proc]
			}
		}
		if sentResp > 0 && consumedReq == 0 && pendingReq[ev.Proc] > 0 {
			// Answered in a later step than the request arrived: blocking.
			m.Deferred = true
		}
		pendingReq[ev.Proc] += consumedReq - sentResp
		if pendingReq[ev.Proc] < 0 {
			pendingReq[ev.Proc] = 0
		}
		if pendingReq[ev.Proc] == 0 {
			stepsSince[ev.Proc] = 0
		}
	}
	for _, n := range pendingReq {
		if n > 0 {
			// A request was never answered in the window; if the txn
			// completed anyway the protocol used other traffic, which is
			// fine, but an unanswered read with an incomplete txn is a
			// block.
			m.Deferred = true
		}
	}
	return m
}

// ofTxn reports whether message id belongs to transaction tid.
func ofTxn(k *sim.Kernel, id int64, tid model.TxnID) bool {
	p, ok := k.PayloadOf(id).(protocol.TxnPayload)
	return ok && p.Txn() == tid
}

// MeasureResult is a convenience wrapper: measure the transaction a
// Deployment.RunTxn executed, given the trace position before invocation.
func MeasureResult(d *protocol.Deployment, from int, res *model.Result) Measurement {
	if res == nil {
		return Measurement{}
	}
	m := Measure(d.Kernel, from, d.Kernel.Trace().Len(), res.Txn.ID,
		sim.ProcessID(res.Txn.ID.Client), d.Place)
	m.Completed = res.OK()
	return m
}
