// Package ramp models RAMP-Fast (Bailis et al., SIGMOD 2014): read-atomic
// multi-object write transactions. Writes run two-phase commit carrying
// the transaction's write-set as metadata; read-only transactions take one
// round in the race-free case and a second repair round when a fractured
// read is detected — the metadata tells the reader exactly which sibling
// versions it is missing, and prepared-but-uncommitted versions can be
// fetched by writer ID (the reader's observation proves the commit).
//
// RAMP guarantees read atomicity, not causal consistency: there is no
// cross-transaction dependency tracking.
package ramp

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Protocol is the ramp factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "ramp" }

// Claims implements protocol.Protocol.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      false, // ≤ 2
		OneValue:      true,  // per message; ≤ 2 per object per ROT
		NonBlocking:   true,
		MultiWriteTxn: true,
		Consistency:   "read-atomic",
	}
}

// NewServer implements protocol.Protocol.
func (*Protocol) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &server{ServerCore: protocol.NewServerCore(id, pl)}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	clock := int64(1)
	if protocol.IsInitClient(id) {
		clock = 0
	}
	return &client{Core: protocol.NewCore(id, pl, p), clock: clock}
}

// after is the global version order (timestamp, then writer).
func after(ts1 int64, w1 model.TxnID, ts2 int64, w2 model.TxnID) bool {
	if ts1 != ts2 {
		return ts1 > ts2
	}
	return w1.String() > w2.String()
}

// --- payloads ---

type readReq struct {
	TID  model.TxnID
	Objs []string
}

func (p *readReq) Kind() string     { return "read-req" }
func (p *readReq) Txn() model.TxnID { return p.TID }

type readVal struct {
	Ref model.ValueRef
	TS  int64
	// WriteSet lists the other objects written by the same transaction
	// (RAMP metadata used for fracture detection).
	WriteSet []string
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

// byWriterReq fetches a specific version in the repair round.
type byWriterReq struct {
	TID    model.TxnID
	Object string
	Writer model.TxnID
}

func (p *byWriterReq) Kind() string     { return "by-writer-req" }
func (p *byWriterReq) Txn() model.TxnID { return p.TID }

type prepareReq struct {
	TID      model.TxnID
	TS       int64
	Writes   []model.Write
	WriteSet []string
}

func (p *prepareReq) Kind() string     { return "prepare" }
func (p *prepareReq) Txn() model.TxnID { return p.TID }

type prepareAck struct{ TID model.TxnID }

func (p *prepareAck) Kind() string     { return "prepare-ack" }
func (p *prepareAck) Txn() model.TxnID { return p.TID }

type commitReq struct{ TID model.TxnID }

func (p *commitReq) Kind() string     { return "commit" }
func (p *commitReq) Txn() model.TxnID { return p.TID }

type commitAck struct{ TID model.TxnID }

func (p *commitAck) Kind() string     { return "commit-ack" }
func (p *commitAck) Txn() model.TxnID { return p.TID }

// --- server ---

// A version's store.Version.Meta is the rest of its writer's write set
// ([]string).
type server struct {
	protocol.ServerCore
}

func (s *server) Clone() sim.Process {
	return &server{ServerCore: s.CloneServerCore()}
}

func valOf(v *store.Version) readVal {
	return readVal{
		Ref:      model.ValueRef{Object: v.Object, Value: v.Value, Writer: v.Writer},
		TS:       v.Stamp.Wall,
		WriteSet: v.Meta.([]string),
	}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readReq:
			resp := &readResp{TID: p.TID}
			for _, obj := range p.Objs {
				best := s.ShardStore().LatestVisibleByStamp(obj)
				if best == nil {
					resp.Vals = append(resp.Vals, readVal{Ref: model.ValueRef{Object: obj, Value: model.Bottom}})
					continue
				}
				resp.Vals = append(resp.Vals, valOf(best))
			}
			s.Send(m.From, resp)
		case *byWriterReq:
			resp := &readResp{TID: p.TID}
			// Prepared-but-uncommitted versions are fetchable: the reader
			// has proof the transaction committed elsewhere.
			if v := s.ShardStore().Find(p.Object, p.Writer); v != nil {
				resp.Vals = append(resp.Vals, valOf(v))
			} else {
				resp.Vals = append(resp.Vals, readVal{Ref: model.ValueRef{Object: p.Object, Value: model.Bottom}})
			}
			s.Send(m.From, resp)
		case *prepareReq:
			for _, w := range p.Writes {
				var others []string
				for _, o := range p.WriteSet {
					if o != w.Object {
						others = append(others, o)
					}
				}
				s.ShardStore().Install(&store.Version{
					Object: w.Object, Value: w.Value, Writer: p.TID,
					Stamp: vclock.HLCStamp{Wall: p.TS}, Meta: others,
				})
			}
			s.Send(m.From, &prepareAck{TID: p.TID})
		case *commitReq:
			s.ShardStore().Commit(p.TID)
			s.Send(m.From, &commitAck{TID: p.TID})
		default:
			panic(fmt.Sprintf("ramp: server %s got %T", s.ID(), m.Payload))
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
	preparing
	committing
)

type client struct {
	protocol.Core
	clock int64
	phase phase
	got   map[string]readVal
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), clock: c.clock, phase: c.phase}
	if c.got != nil {
		cp.got = make(map[string]readVal, len(c.got))
		for k, v := range c.got {
			cp.got[k] = v
		}
	}
	return cp
}

// fractures returns, per object, the writer whose sibling write is missing
// from the fetched snapshot.
func (c *client) fractures() map[string]readVal {
	repair := make(map[string]readVal)
	for _, v := range c.got {
		if v.Ref.Value == model.Bottom {
			continue
		}
		for _, sibling := range v.WriteSet {
			have, fetched := c.got[sibling]
			if !fetched {
				continue // outside the read set
			}
			if have.Ref.Writer != v.Ref.Writer && after(v.TS, v.Ref.Writer, have.TS, have.Ref.Writer) {
				if cur, dup := repair[sibling]; !dup || after(v.TS, v.Ref.Writer, cur.TS, cur.Ref.Writer) {
					repair[sibling] = v
				}
			}
		}
	}
	return repair
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readResp:
			if (c.phase == round1 || c.phase == round2) && c.Reply(p) {
				for _, v := range p.Vals {
					cur, fetched := c.got[v.Ref.Object]
					if !fetched || after(v.TS, v.Ref.Writer, cur.TS, cur.Ref.Writer) {
						c.got[v.Ref.Object] = v
					}
				}
			}
		case *prepareAck:
			if c.phase == preparing {
				c.Reply(p)
			}
		case *commitAck:
			if c.phase == committing {
				c.Reply(p)
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if t.IsReadOnly() {
			c.phase = round1
			c.got = make(map[string]readVal)
			for _, sh := range c.Placement().ReadShares(t.ReadSet) {
				c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items})
			}
		} else {
			c.phase = preparing
			// A hybrid clock: writers that do not overlap are stamped in
			// real-time order, as the read-atomic checker assumes.
			c.clock = max(c.clock+1, int64(now))
			ws := t.WriteSet()
			for _, sh := range c.Placement().WriteShares(t.Writes) {
				c.Send(sh.Server, &prepareReq{
					TID: t.ID, TS: c.clock, Writes: sh.Items, WriteSet: ws,
				})
			}
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		switch c.phase {
		case round1:
			repair := c.fractures()
			if len(repair) == 0 {
				c.finishRead(now)
				return c.Sent()
			}
			c.phase = round2
			objs := make([]string, 0, len(repair))
			for o := range repair {
				objs = append(objs, o)
			}
			sort.Strings(objs)
			for _, o := range objs {
				c.Send(c.Placement().PrimaryOf(o), &byWriterReq{
					TID: t.ID, Object: o, Writer: repair[o].Ref.Writer,
				})
			}
		case round2:
			c.finishRead(now)
		case preparing:
			c.phase = committing
			for _, srv := range c.Placement().ServersFor(t.WriteSet()) {
				c.Send(srv, &commitReq{TID: t.ID})
			}
		case committing:
			c.phase = idle
			c.Finish(now)
		}
	}
	return c.Sent()
}

func (c *client) finishRead(now sim.Time) {
	t := c.Current()
	for _, obj := range t.ReadSet {
		v := c.got[obj]
		c.Result().SetValue(obj, v.Ref.Value)
		if v.TS > c.clock {
			c.clock = v.TS
		}
	}
	c.phase = idle
	c.got = nil
	c.Finish(now)
}
