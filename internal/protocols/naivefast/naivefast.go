// Package naivefast implements the "impossible" design the theorem rules
// out: it claims fast read-only transactions (one round, one value,
// non-blocking) AND multi-object write transactions AND causal
// consistency. Writes are applied and made visible the moment they reach a
// server; reads are answered immediately with the latest visible value.
//
// The claim is false — the adversary (internal/adversary) constructs the
// paper's execution γ against it and exhibits a mixed read that violates
// Lemma 1 — which is exactly the point: this protocol is the executable
// witness that the four properties cannot coexist.
package naivefast

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
)

// Protocol is the naivefast protocol factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "naivefast" }

// Claims implements protocol.Protocol. All four properties are claimed;
// the consistency claim is the one the adversary refutes.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      true,
		OneValue:      true,
		NonBlocking:   true,
		MultiWriteTxn: true,
		Consistency:   "causal",
	}
}

// NewServer implements protocol.Protocol.
func (*Protocol) NewServer(id sim.ProcessID, pl *Placement) sim.Process {
	return &server{ServerCore: protocol.NewServerCore(id, pl)}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p)}
}

// Placement aliases protocol.Placement for the constructor signatures.
type Placement = protocol.Placement

// --- payloads ---

type readReq struct {
	TID  model.TxnID
	Objs []string
}

func (p *readReq) Kind() string     { return "read-req" }
func (p *readReq) Txn() model.TxnID { return p.TID }

type readResp struct {
	TID  model.TxnID
	Vals []model.ValueRef
}

func (p *readResp) Kind() string                    { return "read-resp" }
func (p *readResp) Txn() model.TxnID                { return p.TID }
func (p *readResp) CarriedValues() []model.ValueRef { return p.Vals }

type writeReq struct {
	TID    model.TxnID
	Writes []model.Write
}

func (p *writeReq) Kind() string     { return "write-req" }
func (p *writeReq) Txn() model.TxnID { return p.TID }
func (p *writeReq) CarriedValues() []model.ValueRef {
	out := make([]model.ValueRef, len(p.Writes))
	for i, w := range p.Writes {
		out[i] = model.ValueRef{Object: w.Object, Value: w.Value, Writer: p.TID}
	}
	return out
}

type writeResp struct {
	TID model.TxnID
}

func (p *writeResp) Kind() string     { return "write-resp" }
func (p *writeResp) Txn() model.TxnID { return p.TID }

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
		case *readReq:
			resp := &readResp{TID: p.TID}
			for _, obj := range p.Objs {
				if v := s.ShardStore().LatestVisible(obj); v != nil {
					resp.Vals = append(resp.Vals, model.ValueRef{Object: obj, Value: v.Value, Writer: v.Writer})
				} else {
					resp.Vals = append(resp.Vals, model.ValueRef{Object: obj, Value: model.Bottom})
				}
			}
			s.Send(m.From, resp)
		case *writeReq:
			for _, w := range p.Writes {
				s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Visible: true})
			}
			s.Send(m.From, &writeResp{TID: p.TID})
		default:
			panic(fmt.Sprintf("naivefast: server %s got %T", s.ID(), m.Payload))
		}
	}
	return s.Sent()
}

// --- client ---

type client struct {
	protocol.Core
}

func (c *client) Clone() sim.Process {
	return &client{Core: c.CloneCore()}
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readResp:
			if c.Reply(p) {
				for _, vr := range p.Vals {
					c.Result().SetValue(vr.Object, vr.Value)
				}
			}
		case *writeResp:
			c.Reply(p)
		}
	}
	if c.Starting(now) {
		t := c.Current()
		pl := c.Placement()
		// Reads go to the primary replica of each object; writes go to
		// every replica of the written object.
		for _, sh := range pl.ReadShares(t.ReadSet) {
			c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items})
		}
		for _, sh := range pl.WriteShares(t.Writes) {
			c.Send(sh.Server, &writeReq{TID: t.ID, Writes: sh.Items})
		}
	}
	if c.RoundDone() {
		// All responses in: complete.
		c.Finish(now)
	}
	return c.Sent()
}
