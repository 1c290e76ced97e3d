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
// Client model. Each client IS a tiny replica. A write's dependency
// metadata is the writer's ENTIRE applied history with values (full
// causal delivery), so a read response parses into a batch of complete
// transactions — the current version with its siblings, plus every
// transaction in its transitive causal past, each carrying its FULL
// write-set of values — and the client applies them like a replicated
// store would:
//
//   - a transaction already applied is skipped (dependency vectors count
//     per-client write transactions, and a client's writes always apply
//     in order, so the vector test is exact);
//   - the remainder are applied in (Lamport timestamp, writer) order — a
//     linear extension of happens-before — each one atomically installing
//     values for its whole write-set.
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
// communicate a prohibitively big amount of data" verdict is about.
package fatcops

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vclock"
)

// vec is a dependency vector: client → number of that client's write
// transactions in the causal past. Vectors are immutable once built.
type vec map[string]int64

// leq reports a ≤ b pointwise (a is in b's causal past or equal).
func (a vec) leq(b vec) bool {
	for k, v := range a {
		if v > b[k] {
			return false
		}
	}
	return true
}

// mergeInto folds a into dst pointwise (dst is the caller's mutable copy).
func (a vec) mergeInto(dst vec) {
	for k, v := range a {
		if v > dst[k] {
			dst[k] = v
		}
	}
}

func (a vec) clone() vec {
	c := make(vec, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

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
		vec: make(vec), ctx: make(map[string]stamped)}
}

// stamped is an applied value with its writer, the writer's Lamport
// timestamp, and the writing transaction's dependency vector, write-set
// and full value map. All are immutable once built.
type stamped struct {
	Val    model.Value
	Writer model.TxnID
	TS     int64
	Vec    vec
	WSet   []string
	Vals   map[string]model.Value
}

// --- payloads ---

type readReq struct {
	TID  model.TxnID
	Objs []string
}

func (p *readReq) Kind() string     { return "read-req" }
func (p *readReq) Txn() model.TxnID { return p.TID }

// fatEntry is one object's candidate value in a fat response, together
// with the writing transaction's dependency vector and write-set.
type fatEntry struct {
	Object string
	Val    model.Value
	Writer model.TxnID
	TS     int64
	Vec    vec
	WSet   []string
}

// directVal is the primary's answer for one requested object: the current
// version (last installed at the primary) plus the writing transaction's
// stored fat metadata.
type directVal struct {
	Object string
	Val    model.Value
	Writer model.TxnID
	TS     int64
	Vec    vec
	WSet   []string   // all objects the current writer's transaction wrote
	Sibs   []fatEntry // current writer's sibling writes
	Deps   []fatEntry // current writer's dependency values
}

type readResp struct {
	TID  model.TxnID
	Vals []directVal
}

func (p *readResp) Kind() string     { return "fat-read-resp" }
func (p *readResp) Txn() model.TxnID { return p.TID }
func (p *readResp) CarriedValues() []model.ValueRef {
	var out []model.ValueRef
	for _, v := range p.Vals {
		out = append(out, model.ValueRef{Object: v.Object, Value: v.Val, Writer: v.Writer})
		for _, e := range append(append([]fatEntry(nil), v.Sibs...), v.Deps...) {
			out = append(out, model.ValueRef{Object: e.Object, Value: e.Val, Writer: e.Writer})
		}
	}
	return out
}

type writeReq struct {
	TID model.TxnID
	TS  int64
	Vec vec
	// Writes are the writes for objects hosted at the destination.
	Writes []model.Write
	// Sibs are ALL of the transaction's writes (co-hosted ones included —
	// readers apply the whole write-set atomically); DepVals are the
	// causally depended-on values. Both are shipped and stored.
	Sibs    []fatEntry
	DepVals []fatEntry
}

func (p *writeReq) Kind() string     { return "fat-write-req" }
func (p *writeReq) Txn() model.TxnID { return p.TID }

type writeResp struct {
	TID model.TxnID
}

func (p *writeResp) Kind() string     { return "fat-write-ack" }
func (p *writeResp) Txn() model.TxnID { return p.TID }

// --- server ---

// metaBlob is a write transaction's fat metadata, the store.Version.Meta
// of every version it installed at a server.
type metaBlob struct {
	Sibs []fatEntry
	Deps []fatEntry
	WSet []string // every object the writing transaction touched
	Vec  vec      // the writing transaction's dependency vector
}

type server struct {
	protocol.ServerCore
}

func (s *server) Clone() sim.Process {
	return &server{ServerCore: s.CloneServerCore()}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readReq:
			resp := &readResp{TID: p.TID}
			for _, obj := range p.Objs {
				chain := s.ShardStore().Versions(obj)
				if len(chain) == 0 {
					resp.Vals = append(resp.Vals, directVal{Object: obj, Val: model.Bottom})
					continue
				}
				// The current version is the last installed one.
				v := chain[len(chain)-1]
				blob := v.Meta.(*metaBlob)
				resp.Vals = append(resp.Vals, directVal{
					Object: obj, Val: v.Value, Writer: v.Writer, TS: v.Stamp.Wall,
					Vec: blob.Vec, WSet: blob.WSet, Sibs: blob.Sibs, Deps: blob.Deps,
				})
			}
			s.Send(m.From, resp)
		case *writeReq:
			// The sibling list carries the transaction's full write-set.
			blob := &metaBlob{Sibs: p.Sibs, Deps: p.DepVals, Vec: p.Vec,
				WSet: make([]string, 0, len(p.Sibs))}
			for _, e := range p.Sibs {
				blob.WSet = append(blob.WSet, e.Object)
			}
			for _, w := range p.Writes {
				s.ShardStore().Install(&store.Version{
					Object: w.Object, Value: w.Value, Writer: p.TID,
					Visible: true, Stamp: vclock.HLCStamp{Wall: p.TS}, Meta: blob,
				})
			}
			s.Send(m.From, &writeResp{TID: p.TID})
		default:
			panic(fmt.Sprintf("fatcops: server %s got %T", s.ID(), m.Payload))
		}
	}
	return s.Sent()
}

// --- client ---

type client struct {
	protocol.Core
	clock  int64
	writes int64 // own write transactions issued (this client's vector entry)
	vec    vec   // applied causal past: exactly the transactions applied
	// ctx is the local replica state: the latest applied value per object.
	ctx map[string]stamped
	// past is the client's entire applied history, flattened to (writer,
	// object, value) entries in application order. It is shipped verbatim
	// as the dependency metadata of every write — the whole transitive
	// causal past with values, which is what lets any reader causally
	// deliver a write it was missing predecessors for. This is the
	// "prohibitively big amount of data" of §3.4, kept deliberately.
	past []fatEntry
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), clock: c.clock, writes: c.writes,
		vec:  c.vec.clone(),
		ctx:  make(map[string]stamped, len(c.ctx)),
		past: append([]fatEntry(nil), c.past...)}
	for k, v := range c.ctx {
		cp.ctx[k] = v
	}
	return cp
}

func (c *client) tick(ts int64) {
	if ts > c.clock {
		c.clock = ts
	}
}

// txnCand is one complete transaction reconstructed from a fat response:
// its full write-set with values, ready to be applied atomically.
type txnCand struct {
	id   model.TxnID
	ts   int64
	vc   vec
	wset []string
	vals map[string]model.Value
}

// applyBatch parses one read response into complete transactions and
// applies them to the local replica state. A transaction already applied
// is skipped (the vector test is exact: counters are per-client
// sequential and a client's writes always apply in order); the rest are
// applied in (TS, writer) order — a linear extension of happens-before,
// because causally ordered writes have strictly increasing Lamport
// timestamps — each atomically installing its whole write-set. Because
// every write travels with its full transitive past, a response never
// introduces a transaction into the causal past without also delivering
// its values, so the application order with reads interleaved is a legal
// causal serialization by construction.
func (c *client) applyBatch(vals []directVal) {
	cands := make(map[string]*txnCand)
	ensure := func(w model.TxnID, ts int64, vc vec, wset []string) *txnCand {
		k := w.String()
		t := cands[k]
		if t == nil {
			t = &txnCand{id: w, ts: ts, vc: vc, wset: wset, vals: make(map[string]model.Value)}
			cands[k] = t
		}
		return t
	}
	for _, dv := range vals {
		if dv.Val == model.Bottom {
			continue
		}
		t := ensure(dv.Writer, dv.TS, dv.Vec, dv.WSet)
		t.vals[dv.Object] = dv.Val
		for _, e := range dv.Sibs {
			t.vals[e.Object] = e.Val
		}
		for _, e := range dv.Deps {
			d := ensure(e.Writer, e.TS, e.Vec, e.WSet)
			d.vals[e.Object] = e.Val
		}
	}
	batch := make([]*txnCand, 0, len(cands))
	for _, t := range cands {
		batch = append(batch, t)
	}
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].ts != batch[j].ts {
			return batch[i].ts < batch[j].ts
		}
		return batch[i].id.String() < batch[j].id.String()
	})
	for _, t := range batch {
		c.tick(t.ts)
		if t.vc.leq(c.vec) {
			continue // already in the causal past: superseded
		}
		if protocol.IsInitClient(sim.ProcessID(t.id.Client)) {
			// Initial writes precede everything, but blind writers do not
			// record them in dependency vectors, so the vector test above
			// cannot supersede them: an initial value only fills an
			// object the client has never seen written.
			for _, o := range t.wset {
				if _, held := c.ctx[o]; held {
					continue
				}
				c.ctx[o] = stamped{Val: t.vals[o], Writer: t.id, TS: t.ts,
					Vec: t.vc, WSet: t.wset, Vals: t.vals}
			}
			c.record(t)
			continue
		}
		wset := t.wset
		if len(wset) == 0 {
			wset = make([]string, 0, len(t.vals))
			for o := range t.vals {
				wset = append(wset, o)
			}
			sort.Strings(wset)
		}
		complete := true
		for _, o := range wset {
			if _, known := t.vals[o]; !known {
				complete = false
				break
			}
		}
		if !complete {
			// Partial application would leave the cut inconsistent;
			// the invariant (siblings always carry the full write-set)
			// makes this unreachable, but skip defensively.
			continue
		}
		for _, o := range wset {
			c.ctx[o] = stamped{Val: t.vals[o], Writer: t.id, TS: t.ts,
				Vec: t.vc, WSet: wset, Vals: t.vals}
		}
		c.record(t)
	}
}

// record appends an applied transaction to the client's flattened history
// and folds it into the applied-past vector.
func (c *client) record(t *txnCand) {
	wset := t.wset
	if len(wset) == 0 {
		wset = make([]string, 0, len(t.vals))
		for o := range t.vals {
			wset = append(wset, o)
		}
		sort.Strings(wset)
	}
	for _, o := range wset {
		c.past = append(c.past, fatEntry{Object: o, Val: t.vals[o], Writer: t.id,
			TS: t.ts, Vec: t.vc, WSet: wset})
	}
	t.vc.mergeInto(c.vec)
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readResp:
			if c.Reply(p) {
				c.applyBatch(p.Vals)
			}
		case *writeResp:
			c.Reply(p)
		}
	}
	if c.Starting(now) {
		t := c.Current()
		pl := c.Placement()
		if t.IsReadOnly() {
			for _, sh := range pl.ReadShares(t.ReadSet) {
				c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items})
			}
		} else {
			c.clock++
			c.writes++
			ts := c.clock
			// The write's dependency metadata is the client's ENTIRE
			// applied history with values — full causal delivery.
			deps := append([]fatEntry(nil), c.past...)
			// wv is shipped and stored remotely, so it must be frozen
			// here: the client's own mutable vec is a separate copy.
			wv := c.vec.clone()
			wv[string(c.ID())] = c.writes
			c.vec = wv.clone()
			wset := make([]string, 0, len(t.Writes))
			for _, w := range t.Writes {
				wset = append(wset, w.Object)
			}
			var siblings []fatEntry
			for _, w := range t.Writes {
				siblings = append(siblings, fatEntry{Object: w.Object, Val: w.Value, Writer: t.ID,
					TS: ts, Vec: wv, WSet: wset})
			}
			for _, sh := range pl.WriteShares(t.Writes) {
				c.Send(sh.Server, &writeReq{
					TID: t.ID, TS: ts, Vec: wv, Writes: sh.Items, Sibs: siblings, DepVals: deps,
				})
			}
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		if t.IsReadOnly() {
			// Every response batch has been applied; the replica state is
			// the read's snapshot.
			for _, obj := range t.ReadSet {
				if s, exists := c.ctx[obj]; exists {
					c.Result().SetValue(obj, s.Val)
				} else {
					c.Result().SetValue(obj, model.Bottom)
				}
			}
		} else {
			// The client's own writes are the newest thing in its causal
			// past: apply them to the local replica unconditionally.
			vals := make(map[string]model.Value, len(t.Writes))
			wset := make([]string, 0, len(t.Writes))
			for _, w := range t.Writes {
				vals[w.Object] = w.Value
				wset = append(wset, w.Object)
			}
			wv := c.vec.clone()
			for _, w := range t.Writes {
				c.ctx[w.Object] = stamped{Val: w.Value, Writer: t.ID, TS: c.clock,
					Vec: wv, WSet: wset, Vals: vals}
			}
			c.record(&txnCand{id: t.ID, ts: c.clock, vc: wv, wset: wset, vals: vals})
		}
		c.Finish(now)
	}
	return c.Sent()
}
