// Package cops models COPS (Lloyd et al., SOSP 2011): causally consistent,
// single-object writes carrying explicit dependency metadata, and get-
// transactions (read-only transactions) that are non-blocking and take at
// most two rounds — the first round optimistically fetches the latest
// value of every object plus its dependencies; if the returned versions
// are mutually inconsistent (some value depends on a newer version of
// another object than the one returned), a second round fetches the
// specific missing versions. Each message carries at most one value per
// object, but an object may be fetched twice across the two rounds (the
// "≤ 2 rounds, ≤ 2 values" row of Table 1).
package cops

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
)

// Protocol is the cops factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "cops" }

// Claims implements protocol.Protocol.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      false, // up to 2
		OneValue:      true,  // per message
		NonBlocking:   true,
		MultiWriteTxn: false,
		Consistency:   "causal",
	}
}

// NewServer implements protocol.Protocol.
func (*Protocol) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &server{ServerCore: protocol.NewServerCore(id, pl)}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p)}
}

// leafSize is how many objects one dependency leaf covers.
const leafSize = 16

// leaf holds the dependency sequences of leafSize consecutive objects. It
// holds no pointers, so the collector never scans it.
type leaf [leafSize]int64

// deps is a dependency vector: entry i is the sequence of the newest
// version of the placement's i-th object (Objects() order) depended on,
// 0 for none. A nil or missing leaf reads as zeros. The vectors a client
// sends share their leaves, and a leaf is never written once sent (a
// payload's %#v shows leaf addresses, so TestContextMatchesReference is
// what checks this). A version's deps is its store.Version.Meta.
type deps []*leaf

// seq returns entry i.
func (d deps) seq(i int) int64 {
	if l := i / leafSize; l < len(d) && d[l] != nil {
		return d[l][i%leafSize]
	}
	return 0
}

// causalContext is a client's causal context: the deps it would send now.
// It writes its leaves in place, but copies a leaf the first time it
// changes one that a snapshot shares.
type causalContext struct {
	vec   deps
	owned []bool // owned[l]: vec[l] is in no snapshot, so writable
}

// set makes entry i seq.
func (c *causalContext) set(i int, seq int64) {
	l := i / leafSize
	if grow := l + 1 - len(c.vec); grow > 0 {
		c.vec = append(c.vec, make(deps, grow)...)
		c.owned = append(c.owned, make([]bool, grow)...)
	}
	if !c.owned[l] {
		fresh := new(leaf)
		if c.vec[l] != nil {
			*fresh = *c.vec[l]
		}
		c.vec[l], c.owned[l] = fresh, true
	}
	c.vec[l][i%leafSize] = seq
}

// observe raises entry i to seq.
func (c *causalContext) observe(i int, seq int64) {
	if seq > c.vec.seq(i) {
		c.set(i, seq)
	}
}

// snapshot returns the context as it stands. It shares every leaf, so
// the context owns none of them afterwards.
func (c *causalContext) snapshot() deps {
	clear(c.owned)
	return slices.Clone(c.vec)
}

// clone returns an independent copy without writing the receiver: leaves
// a snapshot shares stay shared, and the ones the receiver still owns are
// copied for the clone to own.
func (c *causalContext) clone() causalContext {
	cp := causalContext{vec: slices.Clone(c.vec), owned: slices.Clone(c.owned)}
	for l, own := range c.owned {
		if own {
			fresh := *c.vec[l]
			cp.vec[l] = &fresh
		}
	}
	return cp
}

// --- payloads ---

type readReq struct {
	TID  model.TxnID
	Objs []string
}

func (p *readReq) Kind() string     { return "read-req" }
func (p *readReq) Txn() model.TxnID { return p.TID }

type readVal struct {
	Ref  model.ValueRef
	Seq  int64
	Deps deps
}

type readResp struct {
	TID  model.TxnID
	Vals []readVal
}

func (p *readResp) Kind() string     { return "read-resp" }
func (p *readResp) Txn() model.TxnID { return p.TID }
func (p *readResp) CarriedValues() []model.ValueRef {
	out := make([]model.ValueRef, len(p.Vals))
	for i, v := range p.Vals {
		out[i] = v.Ref
	}
	return out
}

// readAtReq is the second-round fetch of a version at or after minSeq.
type readAtReq struct {
	TID    model.TxnID
	Object string
	MinSeq int64
}

func (p *readAtReq) Kind() string     { return "read-at-req" }
func (p *readAtReq) Txn() model.TxnID { return p.TID }

type writeReq struct {
	TID  model.TxnID
	W    model.Write
	Deps deps
}

func (p *writeReq) Kind() string     { return "write-req" }
func (p *writeReq) Txn() model.TxnID { return p.TID }

type writeResp struct {
	TID model.TxnID
	Seq int64
}

func (p *writeResp) Kind() string     { return "write-ack" }
func (p *writeResp) Txn() model.TxnID { return p.TID }

// --- server ---

type server struct {
	protocol.ServerCore
}

func (s *server) Clone() sim.Process {
	return &server{ServerCore: s.CloneServerCore()}
}

func valOf(v *store.Version) readVal {
	return readVal{
		Ref:  model.ValueRef{Object: v.Object, Value: v.Value, Writer: v.Writer},
		Seq:  v.Seq,
		Deps: v.Meta.(deps),
	}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readReq:
			resp := &readResp{TID: p.TID, Vals: make([]readVal, 0, len(p.Objs))}
			for _, obj := range p.Objs {
				if v := s.ShardStore().LatestVisible(obj); v != nil {
					resp.Vals = append(resp.Vals, valOf(v))
				} else {
					resp.Vals = append(resp.Vals, readVal{Ref: model.ValueRef{Object: obj, Value: model.Bottom}})
				}
			}
			s.Send(m.From, resp)
		case *readAtReq:
			resp := &readResp{TID: p.TID}
			// The latest visible version's sequence is ≥ MinSeq whenever
			// the dependency was written by a completed transaction, so
			// this never blocks.
			if v := s.ShardStore().LatestVisible(p.Object); v != nil {
				resp.Vals = append(resp.Vals, valOf(v))
			} else {
				resp.Vals = append(resp.Vals, readVal{Ref: model.ValueRef{Object: p.Object, Value: model.Bottom}})
			}
			s.Send(m.From, resp)
		case *writeReq:
			v := s.ShardStore().Install(&store.Version{Object: p.W.Object, Value: p.W.Value, Writer: p.TID, Visible: true, Meta: p.Deps})
			s.Send(m.From, &writeResp{TID: p.TID, Seq: v.Seq})
		default:
			panic(fmt.Sprintf("cops: server %s got %T", s.ID(), m.Payload))
		}
	}
	return s.Sent()
}

// --- client ---

type phase uint8

const (
	idle phase = iota
	round1
	round2
	writing
)

type client struct {
	protocol.Core
	phase phase
	ctx   causalContext
	got   []slot // the active ROT's, aligned with its ReadSet
}

// slot is one object of the active ROT's read set: its index in the
// context and the newest version of it fetched so far (zero, which reads
// as ⊥, until one arrives).
type slot struct {
	obj int
	v   readVal
}

func (c *client) Clone() sim.Process {
	return &client{Core: c.CloneCore(), phase: c.phase, ctx: c.ctx.clone(), got: slices.Clone(c.got)}
}

// need returns the newest sequence of slot b's object that a fetched
// version depends on, if slot b holds an older one, and 0 otherwise.
func (c *client) need(b int) int64 {
	var need int64
	for _, a := range c.got {
		if d := a.v.Deps.seq(c.got[b].obj); d > c.got[b].v.Seq && d > need {
			need = d
		}
	}
	return need
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readResp:
			if (c.phase == round1 || c.phase == round2) && c.Reply(p) {
				for _, v := range p.Vals {
					if s := &c.got[slices.Index(c.Current().ReadSet, v.Ref.Object)]; v.Seq > s.v.Seq {
						s.v = v
					}
				}
			}
		case *writeResp:
			if c.phase == writing && c.Reply(p) {
				w := c.Current().Writes[len(c.Current().Writes)-1]
				c.ctx.set(c.Placement().ObjectIndex(w.Object), p.Seq)
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if t.IsReadOnly() {
			c.phase = round1
			for _, obj := range t.ReadSet {
				c.got = append(c.got, slot{obj: c.Placement().ObjectIndex(obj)})
			}
			for _, sh := range c.Placement().ReadShares(t.ReadSet) {
				c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items})
			}
		} else {
			c.phase = writing
			w := t.Writes[len(t.Writes)-1]
			c.Send(c.Placement().PrimaryOf(w.Object), &writeReq{
				TID: t.ID, W: w, Deps: c.ctx.snapshot(),
			})
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		switch c.phase {
		case round1:
			// Second round: fetch the newer versions that fetched values
			// depend on, in ReadSet (sorted) order.
			for i, obj := range t.ReadSet {
				if need := c.need(i); need > 0 {
					c.phase = round2
					c.Send(c.Placement().PrimaryOf(obj), &readAtReq{
						TID: t.ID, Object: obj, MinSeq: need,
					})
				}
			}
			if c.phase == round1 {
				c.finishRead(now)
			}
		case round2:
			c.finishRead(now)
		case writing:
			c.phase = idle
			c.Finish(now)
		}
	}
	return c.Sent()
}

func (c *client) finishRead(now sim.Time) {
	for i, obj := range c.Current().ReadSet {
		v := c.got[i].v
		c.Result().SetValue(obj, v.Ref.Value)
		if v.Ref.Value != model.Bottom {
			c.ctx.observe(c.got[i].obj, v.Seq)
		}
	}
	c.phase = idle
	clear(c.got)
	c.got = c.got[:0]
	c.Finish(now)
}
