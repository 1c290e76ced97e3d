// Package fatcops implements the N+O+W design sketched in §3.4 of the
// paper: one-round, non-blocking read-only transactions that coexist with
// multi-object write transactions and causal consistency — at the price of
// the one-value property. Every write carries (a) the values of the other
// objects written by the same transaction and (b) the values of all the
// objects the transaction causally depends on; servers store this fat
// metadata alongside the version and return all of it to readers.
//
// The responses therefore carry values for objects the answering server
// does not even store — a direct violation of the (general) one-value
// property, which is exactly the trade the paper describes: "this protocol
// is not efficient, as it requires to store and communicate a
// prohibitively big amount of data".
//
// Client model. Each client IS a tiny replica. Every write transaction is
// one immutable record, built once by its writer and shared by pointer by
// its writes, the versions servers keep and every client that applies it:
// its id, Lamport timestamp and write set with values, and its writer's
// applied log per origin client when it wrote (full causal delivery).
// The log lengths are the write's dependency vector. A client's writes
// are causally ordered, so every log of an origin client is a prefix of
// that client's writes in order: applying its j-th write means its first
// j-1 are applied. A read response therefore brings, for each origin,
// exactly the transactions past the reader's own log of it, each with
// its FULL write set of values, and the client applies them like a
// replicated store would, in (Lamport timestamp, writer) order — a
// linear extension of happens-before — each one atomically installing
// values for its whole write set.
//
// The client's serialization is its application order with reads
// interleaved, which is causally legal by construction: a response can
// never bring a transaction into the causal past without also delivering
// the values of every predecessor, so happens-before is respected across
// batches, and atomic full-write-set application means two transactions
// that wrote the same set of objects can never be observed mixed.
//
// Thriftier clients were tried first and all fracture under concurrent
// load at 2 objects/server: per-object freshest-value heuristics silently
// commit cross-object ordering (reading X1's initial value next to a
// fresh X0 orders every unseen X1 write after that X0) that later choices
// contradict, and shipping only the writer's current dependency CUT
// (latest value per object) lets a write drag a transaction into the
// reader's past without its values, wedging objects the skipped entries
// no longer cover. Full causal delivery is what the paper's "store and
// communicate a prohibitively big amount of data" verdict is about: the
// model ships and counts it (CarriedValues) but shares it on the host.
package fatcops

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Protocol is the fatcops factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "fatcops" }

// Claims implements protocol.Protocol: one round, non-blocking,
// multi-writes — but NOT one-value.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      true,
		OneValue:      false,
		NonBlocking:   true,
		MultiWriteTxn: true,
		Consistency:   "causal",
	}
}

// NewServer implements protocol.Protocol.
func (*Protocol) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &server{ServerCore: protocol.NewServerCore(id, pl)}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	// Initializing clients stamp their writes at 1; every other client
	// boots its clock at 1 so even a blind first write is stamped 2 and
	// is applied after the initial values.
	clock := int64(1)
	if protocol.IsInitClient(id) {
		clock = 0
	}
	return &client{Core: protocol.NewCore(id, pl, p), clock: clock,
		ctx: make(map[string]model.Value), log: make(map[string][]*txn)}
}

// txn is one write transaction's record: its writes carry it, every
// version it installs keeps it as its store.Version.Meta, and every
// client that applies it appends it to its log. Never written once sent.
type txn struct {
	id     model.TxnID
	ts     int64         // the writer's Lamport timestamp
	writes []model.Write // the whole write set with values
	// past is the writer's applied log per origin client when it wrote,
	// this transaction included, each slice capped at its length; the
	// lengths are the transaction's dependency vector.
	past map[string][]*txn
}

// capped copies log with every slice capped at its length, so appends
// through either copy never show through the other.
func capped(log map[string][]*txn) map[string][]*txn {
	out := make(map[string][]*txn, len(log))
	for k, l := range log {
		out[k] = l[:len(l):len(l)]
	}
	return out
}

// --- payloads ---

// directVal is the primary's answer for one requested object: the current
// version (last installed at the primary) and its writer's record, nil
// for ⊥.
type directVal struct {
	Object string
	Val    model.Value
	Txn    *txn
}

type readResp struct {
	protocol.Msg
	Vals []directVal
}

func (p *readResp) Kind() string { return "fat-read-resp" }

// CarriedValues implements protocol.ValueCarrier: each answer, then
// every write of its writer's past, the writer's own write set included.
func (p *readResp) CarriedValues() []model.ValueRef {
	var out []model.ValueRef
	for _, v := range p.Vals {
		ref := model.ValueRef{Object: v.Object, Value: v.Val}
		if v.Txn == nil {
			out = append(out, ref)
			continue
		}
		ref.Writer = v.Txn.id
		out = append(out, ref)
		for _, k := range slices.Sorted(maps.Keys(v.Txn.past)) {
			for _, t := range v.Txn.past[k] {
				for _, w := range t.writes {
					out = append(out, model.ValueRef{Object: w.Object, Value: w.Value, Writer: t.id})
				}
			}
		}
	}
	return out
}

// --- server ---

type server struct {
	protocol.ServerCore
}

func (s *server) Clone() sim.Process {
	return &server{ServerCore: s.CloneServerCore()}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.Read[struct{}]:
			resp := &readResp{Msg: p.Msg, Vals: make([]directVal, 0, len(p.Objs))}
			for _, obj := range p.Objs {
				dv := directVal{Object: obj}
				// The current version is the last installed one.
				if chain := s.ShardStore().Versions(obj); len(chain) > 0 {
					v := chain[len(chain)-1]
					dv.Val, dv.Txn = v.Value, v.Meta.(*txn)
				}
				resp.Vals = append(resp.Vals, dv)
			}
			s.Send(m.From, resp)
		case *protocol.Write[*txn]:
			for _, w := range p.Writes {
				s.ShardStore().Install(&store.Version{
					Object: w.Object, Value: w.Value, Writer: p.TID,
					Visible: true, Stamp: vclock.HLCStamp{Wall: p.Dep.ts}, Meta: p.Dep,
				})
			}
			s.Send(m.From, &protocol.WriteAck[struct{}]{Msg: p.Msg})
		default:
			panic(fmt.Sprintf("fatcops: server %s got %T", s.ID(), m.Payload))
		}
	}
	return s.Sent()
}

// --- client ---

type client struct {
	protocol.Core
	clock int64
	// ctx is the local replica state: the latest applied value per object.
	ctx map[string]model.Value
	// log is every applied transaction per origin client, in that
	// client's write order: a prefix of its writes.
	log map[string][]*txn
}

func (c *client) Clone() sim.Process {
	return &client{Core: c.CloneCore(), clock: c.clock, ctx: maps.Clone(c.ctx), log: capped(c.log)}
}

// apply installs t's whole write set in the local replica state and
// appends t to its origin's log. Initial writes precede everything, but
// blind writers do not carry them in their pasts, so a later write of
// the object may be applied first: an initial value only fills an object
// the client has never seen written.
func (c *client) apply(t *txn) {
	initial := protocol.IsInitClient(sim.ProcessID(t.id.Client))
	for _, w := range t.writes {
		if _, held := c.ctx[w.Object]; !held || !initial {
			c.ctx[w.Object] = w.Value
		}
	}
	c.log[t.id.Client] = append(c.log[t.id.Client], t)
}

// applyBatch applies what one read response brings that the client has
// not applied. Every log of an origin is a prefix of its writes, so the
// missing ones are those past the client's own log in each log the
// response carries. They are applied once each, in (TS, writer) order —
// a linear extension of happens-before, because causally ordered writes
// have strictly increasing Lamport timestamps — each atomically
// installing its whole write set.
func (c *client) applyBatch(vals []directVal) {
	var batch []*txn
	for _, dv := range vals {
		if dv.Txn == nil {
			continue
		}
		for k, l := range dv.Txn.past {
			if n := len(c.log[k]); len(l) > n {
				batch = append(batch, l[n:]...)
			}
		}
	}
	slices.SortFunc(batch, func(a, b *txn) int {
		if a == b || a.ts != b.ts {
			return cmp.Compare(a.ts, b.ts)
		}
		return cmp.Compare(a.id.String(), b.id.String())
	})
	for _, t := range slices.Compact(batch) {
		c.clock = max(c.clock, t.ts)
		c.apply(t)
	}
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readResp:
			if c.Reply(p) {
				c.applyBatch(p.Vals)
			}
		case *protocol.WriteAck[struct{}]:
			c.Reply(p)
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if t.IsReadOnly() {
			protocol.SendReads(&c.Core, struct{}{})
		} else {
			// The client's own write is the newest thing in its causal
			// past: apply it, then ship the whole applied log with it.
			c.clock++
			w := &txn{id: t.ID, ts: c.clock, writes: t.Writes}
			c.apply(w)
			w.past = capped(c.log)
			protocol.SendWrites(&c.Core, w)
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		if t.IsReadOnly() {
			// Every response batch has been applied; the replica state is
			// the read's snapshot.
			for _, obj := range t.ReadSet {
				c.Result().SetValue(obj, c.ctx[obj])
			}
		}
		c.Finish(now)
	}
	return c.Sent()
}
