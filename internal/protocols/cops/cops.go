// Package cops models COPS (Lloyd et al., SOSP 2011): causally consistent,
// single-object writes carrying explicit dependency metadata, and get-
// transactions (read-only transactions) that are non-blocking and take at
// most two rounds — the first round optimistically fetches the latest
// value of every object plus its dependency list; if the returned versions
// are mutually inconsistent (some value depends on a newer version of
// another object than the one returned), a second round fetches the
// specific missing versions. Each message carries at most one value per
// object, but an object may be fetched twice across the two rounds (the
// "≤ 2 rounds, ≤ 2 values" row of Table 1).
package cops

import (
	"fmt"
	"slices"
	"sort"
	"strings"

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
func (*Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl)}
}

// depRef names a specific version: object, writer and per-object sequence.
// A version's dependency list ([]depRef) is its store.Version.Meta.
type depRef struct {
	Object string
	Writer model.TxnID
	Seq    int64
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
	Deps []depRef
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
	Deps []depRef
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
		Deps: v.Meta.([]depRef),
	}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	var out []sim.Outbound
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readReq:
			resp := &readResp{TID: p.TID}
			for _, obj := range p.Objs {
				if v := s.ShardStore().LatestVisible(obj); v != nil {
					resp.Vals = append(resp.Vals, valOf(v))
				} else {
					resp.Vals = append(resp.Vals, readVal{Ref: model.ValueRef{Object: obj, Value: model.Bottom}})
				}
			}
			out = append(out, sim.Outbound{To: m.From, Payload: resp})
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
			out = append(out, sim.Outbound{To: m.From, Payload: resp})
		case *writeReq:
			v := s.ShardStore().Install(&store.Version{Object: p.W.Object, Value: p.W.Value, Writer: p.TID, Visible: true, Meta: p.Deps})
			out = append(out, sim.Outbound{To: m.From, Payload: &writeResp{TID: p.TID, Seq: v.Seq}})
		default:
			panic(fmt.Sprintf("cops: server %s got %T", s.ID(), m.Payload))
		}
	}
	return out
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
	ctx   []depRef // causal context: latest observed version per object, sorted by object
	got   map[string]readVal
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), phase: c.phase, ctx: c.ctxList()}
	if c.got != nil {
		cp.got = make(map[string]readVal, len(c.got))
		for k, v := range c.got {
			cp.got[k] = v
		}
	}
	return cp
}

func (c *client) observe(v readVal) {
	if cur, seen := c.ctxSlot(v.Ref.Object); !seen || v.Seq > cur.Seq {
		*cur = depRef{Object: v.Ref.Object, Writer: v.Ref.Writer, Seq: v.Seq}
	}
}

// ctxSlot returns obj's entry in the context, opening one at its sorted
// position if obj is new, so the context never needs re-sorting.
func (c *client) ctxSlot(obj string) (slot *depRef, seen bool) {
	i, seen := slices.BinarySearchFunc(c.ctx, obj, func(d depRef, obj string) int { return strings.Compare(d.Object, obj) })
	if !seen {
		c.ctx = slices.Insert(c.ctx, i, depRef{Object: obj})
	}
	return &c.ctx[i], seen
}

// ctxList returns a copy of the context, in object order.
func (c *client) ctxList() []depRef { return append([]depRef(nil), c.ctx...) }

// inconsistencies returns, per object, the minimum sequence required by
// the dependencies of the fetched versions that the fetched snapshot does
// not meet.
func (c *client) inconsistencies() map[string]int64 {
	need := make(map[string]int64)
	for _, v := range c.got {
		for _, d := range v.Deps {
			have, fetched := c.got[d.Object]
			if !fetched {
				continue // dependency outside the read set: irrelevant
			}
			if have.Seq < d.Seq && need[d.Object] < d.Seq {
				need[d.Object] = d.Seq
			}
		}
	}
	return need
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	var out []sim.Outbound
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readResp:
			if (c.phase == round1 || c.phase == round2) && c.Reply(p) {
				for _, v := range p.Vals {
					if cur, fetched := c.got[v.Ref.Object]; !fetched || v.Seq > cur.Seq {
						c.got[v.Ref.Object] = v
					}
				}
			}
		case *writeResp:
			if c.phase == writing && c.Reply(p) {
				w := c.Current().Writes[len(c.Current().Writes)-1]
				slot, _ := c.ctxSlot(w.Object)
				*slot = depRef{Object: w.Object, Writer: p.TID, Seq: p.Seq}
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if len(t.WriteSet()) > 1 {
			c.Reject(now, "cops: multi-object write transactions unsupported")
			return out
		}
		if len(t.Writes) > 0 && len(t.ReadSet) > 0 {
			c.Reject(now, "cops: read-write transactions unsupported")
			return out
		}
		if t.IsReadOnly() {
			c.phase = round1
			c.got = make(map[string]readVal)
			for _, sh := range c.Placement().ReadShares(t.ReadSet) {
				out = c.Send(out, sh.Server, &readReq{TID: t.ID, Objs: sh.Items})
			}
		} else {
			c.phase = writing
			w := t.Writes[len(t.Writes)-1]
			out = c.Send(out, c.Placement().PrimaryOf(w.Object), &writeReq{
				TID: t.ID, W: w, Deps: c.ctxList(),
			})
		}
		return out
	}
	if c.RoundDone() {
		t := c.Current()
		switch c.phase {
		case round1:
			need := c.inconsistencies()
			if len(need) == 0 {
				c.finishRead(now)
				return out
			}
			// Second round: fetch the specific newer versions.
			c.phase = round2
			objs := make([]string, 0, len(need))
			for o := range need {
				objs = append(objs, o)
			}
			sort.Strings(objs)
			for _, o := range objs {
				out = c.Send(out, c.Placement().PrimaryOf(o), &readAtReq{
					TID: t.ID, Object: o, MinSeq: need[o],
				})
			}
		case round2:
			c.finishRead(now)
		case writing:
			c.phase = idle
			c.Finish(now)
		}
	}
	return out
}

func (c *client) finishRead(now sim.Time) {
	t := c.Current()
	for _, obj := range t.ReadSet {
		v := c.got[obj]
		c.Result().Values[obj] = v.Ref.Value
		if v.Ref.Value != model.Bottom {
			c.observe(v)
		}
	}
	c.phase = idle
	c.got = nil
	c.Finish(now)
}
