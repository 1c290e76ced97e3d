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
	"slices"
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

// readMeta is what a value read carries: its timestamp and the other
// objects its writer wrote (RAMP metadata used for fracture detection).
type readMeta struct {
	TS       int64
	WriteSet []string
}

// byWriterReq fetches a specific version in the repair round.
type byWriterReq struct {
	protocol.Msg
	Object string
	Writer model.TxnID
}

func (p *byWriterReq) Kind() string { return "by-writer-req" }

// txnMeta is what every prepare of a write carries beside its writes: the
// transaction's timestamp and its whole write set.
type txnMeta struct {
	TS       int64
	WriteSet []string
}

// --- server ---

// A version's store.Version.Meta is the rest of its writer's write set
// ([]string).
type server struct {
	protocol.ServerCore
}

func (s *server) Clone() sim.Process {
	return &server{ServerCore: s.CloneServerCore()}
}

func metaOf(v *store.Version) readMeta {
	if v == nil {
		return readMeta{}
	}
	return readMeta{TS: v.Stamp.Wall, WriteSet: v.Meta.([]string)}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.Read[struct{}]:
			resp := protocol.ReplyTo[readMeta](p)
			for _, obj := range p.Objs {
				v := s.ShardStore().LatestVisibleByStamp(obj)
				resp.Add(obj, v, metaOf(v))
			}
			s.Send(m.From, resp)
		case *byWriterReq:
			resp := &protocol.ReadReply[readMeta]{Msg: p.Msg}
			// Prepared-but-uncommitted versions are fetchable: the reader
			// has proof the transaction committed elsewhere.
			v := s.ShardStore().Find(p.Object, p.Writer)
			resp.Add(p.Object, v, metaOf(v))
			s.Send(m.From, resp)
		case *protocol.Prepare[txnMeta]:
			for _, w := range p.Writes {
				var others []string
				for _, o := range p.Dep.WriteSet {
					if o != w.Object {
						others = append(others, o)
					}
				}
				s.ShardStore().Install(&store.Version{
					Object: w.Object, Value: w.Value, Writer: p.TID,
					Stamp: vclock.HLCStamp{Wall: p.Dep.TS}, Meta: others,
				})
			}
			s.Send(m.From, &protocol.Prepared[struct{}]{Msg: p.Msg})
		case *protocol.Commit[struct{}]:
			s.ShardStore().Commit(p.TID)
			s.Send(m.From, &protocol.Committed{Msg: p.Msg})
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
	got   protocol.Gather[readMeta]
}

func (c *client) Clone() sim.Process {
	return &client{Core: c.CloneCore(), clock: c.clock, phase: c.phase, got: c.got.Clone()}
}

// newer is the version order; a zero slot (⊥) is older than any version.
func newer(v, cur protocol.Val[readMeta]) bool {
	return after(v.Meta.TS, v.Ref.Writer, cur.Meta.TS, cur.Ref.Writer)
}

// fractures returns, per object, the writer whose sibling write is missing
// from the fetched snapshot; nil when the snapshot is whole.
func (c *client) fractures() map[string]protocol.Val[readMeta] {
	var repair map[string]protocol.Val[readMeta]
	for _, v := range c.got.Vals {
		if v.Ref.Value == model.Bottom {
			continue
		}
		for _, sibling := range v.Meta.WriteSet {
			i := slices.Index(c.Current().ReadSet, sibling)
			if i < 0 {
				continue // outside the read set
			}
			if have := c.got.Vals[i]; have.Ref.Writer != v.Ref.Writer && newer(v, have) {
				if cur, dup := repair[sibling]; !dup || newer(v, cur) {
					if repair == nil {
						repair = make(map[string]protocol.Val[readMeta])
					}
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
		case *protocol.ReadReply[readMeta]:
			if (c.phase == round1 || c.phase == round2) && c.Reply(p) {
				c.got.Put(&c.Core, p, newer)
			}
		case *protocol.Prepared[struct{}]:
			if c.phase == preparing {
				c.Reply(p)
			}
		case *protocol.Committed:
			if c.phase == committing {
				c.Reply(p)
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if t.IsReadOnly() {
			c.phase = round1
			c.got.Start(&c.Core)
			protocol.SendReads(&c.Core, struct{}{})
		} else {
			c.phase = preparing
			// A hybrid clock: writers that do not overlap are stamped in
			// real-time order, as the read-atomic checker assumes.
			c.clock = max(c.clock+1, int64(now))
			protocol.SendPrepares(&c.Core, txnMeta{TS: c.clock, WriteSet: t.WriteSet()})
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
					Msg: protocol.Msg{TID: t.ID}, Object: o, Writer: repair[o].Ref.Writer,
				})
			}
		case round2:
			c.finishRead(now)
		case preparing:
			c.phase = committing
			protocol.SendCommits(&c.Core, struct{}{})
		case committing:
			c.phase = idle
			c.Finish(now)
		}
	}
	return c.Sent()
}

func (c *client) finishRead(now sim.Time) {
	for _, v := range c.got.Vals {
		if v.Meta.TS > c.clock {
			c.clock = v.Meta.TS
		}
	}
	c.got.Fill(&c.Core)
	c.phase = idle
	c.Finish(now)
}
