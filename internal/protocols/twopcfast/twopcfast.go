// Package twopcfast is the second "impossible" design: like naivefast it
// claims fast read-only transactions plus multi-object write transactions,
// but it tries harder — writes go through two-phase commit (prepare
// installs a hidden version, commit makes it visible), so a write
// transaction's values flip visible atomically *per server*. The flaw the
// theorem exposes remains: between the delivery of the two commit messages
// there is a configuration where one server shows the new value and the
// other the old one, and a fast (one-round, one-value, non-blocking)
// reader has no way to detect it. The adversary exhibits the mixed read.
//
// twopcfast also demonstrates the induction of Lemma 3, claim 1: its
// servers send prepare/commit acknowledgements to the writing client, and
// after receiving them the client messages the other server — exactly the
// "implicit message" msk the proof tracks.
package twopcfast

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
)

// Protocol is the twopcfast factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "twopcfast" }

// Claims implements protocol.Protocol.
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
func (*Protocol) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &server{ServerCore: protocol.NewServerCore(id, pl)}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p)}
}

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

type prepareReq struct {
	TID    model.TxnID
	Writes []model.Write
}

func (p *prepareReq) Kind() string     { return "prepare" }
func (p *prepareReq) Txn() model.TxnID { return p.TID }

type prepareAck struct {
	TID model.TxnID
}

func (p *prepareAck) Kind() string     { return "prepare-ack" }
func (p *prepareAck) Txn() model.TxnID { return p.TID }

type commitReq struct {
	TID model.TxnID
}

func (p *commitReq) Kind() string     { return "commit" }
func (p *commitReq) Txn() model.TxnID { return p.TID }

type commitAck struct {
	TID model.TxnID
}

func (p *commitAck) Kind() string     { return "commit-ack" }
func (p *commitAck) Txn() model.TxnID { return p.TID }

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
		case *prepareReq:
			for _, w := range p.Writes {
				s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID})
			}
			s.Send(m.From, &prepareAck{TID: p.TID})
		case *commitReq:
			s.ShardStore().Commit(p.TID)
			s.Send(m.From, &commitAck{TID: p.TID})
		default:
			panic(fmt.Sprintf("twopcfast: server %s got %T", s.ID(), m.Payload))
		}
	}
	return s.Sent()
}

// --- client ---

type phase uint8

const (
	idle phase = iota
	reading
	preparing
	committing
)

type client struct {
	protocol.Core
	phase phase
}

func (c *client) Clone() sim.Process {
	return &client{Core: c.CloneCore(), phase: c.phase}
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readResp:
			if c.phase == reading && c.Reply(p) {
				for _, vr := range p.Vals {
					c.Result().SetValue(vr.Object, vr.Value)
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
		pl := c.Placement()
		if t.IsReadOnly() {
			c.phase = reading
			for _, sh := range pl.ReadShares(t.ReadSet) {
				c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items})
			}
		} else {
			c.phase = preparing
			for _, sh := range pl.WriteShares(t.Writes) {
				c.Send(sh.Server, &prepareReq{TID: t.ID, Writes: sh.Items})
			}
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		switch c.phase {
		case reading:
			c.phase = idle
			c.Finish(now)
		case preparing:
			// All prepared: commit everywhere.
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
