// Package eigerps models the †-marked rows of the paper's Table 1
// (Eiger-PS, SwiftCloud): systems that provide fast read-only transactions
// AND multi-object write transactions — seemingly beating the theorem —
// by relying on a system model the paper excludes. Their writes complete,
// "but the values they write may be invisible to some clients for an
// indefinitely long time" (§4); making them visible requires out-of-band
// server-to-client communication, which the paper's model (and this
// simulation) forbids.
//
// In-model behaviour: write transactions install hidden versions and
// complete immediately; the servers then exchange synchronization tokens
// forever without ever making the versions visible (visibility would need
// the excluded out-of-band channel). Read-only transactions are genuinely
// fast — one round, one value, non-blocking — and always causally
// consistent, because they only ever see the initial values.
//
// The theorem adversary's verdict is exactly the paper's criticism: the
// protocol violates minimal progress (Definition 3) — its troublesome
// execution α really is infinite, with a server message ms_k in every
// induction segment and the written values never visible.
package eigerps

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
)

// Protocol is the eigerps factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "eigerps" }

// Claims implements protocol.Protocol. All four properties are claimed —
// the price is paid in progress, not in any of {N, O, V, W}.
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

type writeReq struct {
	TID    model.TxnID
	Writes []model.Write
}

func (p *writeReq) Kind() string     { return "write-req" }
func (p *writeReq) Txn() model.TxnID { return p.TID }

type writeResp struct {
	TID model.TxnID
}

func (p *writeResp) Kind() string     { return "write-ack" }
func (p *writeResp) Txn() model.TxnID { return p.TID }

// sync is the never-ending background synchronization: the out-of-band
// visibility mechanism the paper's model excludes would be driven by it.
type syncToken struct {
	Round int64
}

func (p *syncToken) Kind() string { return "sync" }

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
			init := protocol.IsInitClient(sim.ProcessID(p.TID.Client))
			for _, w := range p.Writes {
				// Initializing writes are visible (the system must boot);
				// everything else stays hidden pending the out-of-band
				// mechanism that never arrives in this model.
				s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Visible: init})
			}
			s.Send(m.From, &writeResp{TID: p.TID})
			if !init {
				// Kick off the endless synchronization exchange.
				for _, other := range s.Placement().Servers() {
					if other != s.ID() {
						s.Send(other, &syncToken{Round: 1})
					}
				}
			}
		case *syncToken:
			// Ping-pong synchronization that never makes anything visible.
			// (Bounded per write so that bounded experiment budgets are
			// not consumed by the exchange; every new write starts a new
			// chain, so in the adversary's solo runs there is always one
			// more server message — the ms_k of Lemma 3.)
			if p.Round < 16 {
				s.Send(m.From, &syncToken{Round: p.Round + 1})
			}
		default:
			panic(fmt.Sprintf("eigerps: server %s got %T", s.ID(), m.Payload))
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
		if t.IsReadOnly() {
			for _, sh := range pl.ReadShares(t.ReadSet) {
				c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items})
			}
		} else {
			for _, sh := range pl.WriteShares(t.Writes) {
				c.Send(sh.Server, &writeReq{TID: t.ID, Writes: sh.Items})
			}
		}
		return c.Sent()
	}
	if c.RoundDone() {
		c.Finish(now)
	}
	return c.Sent()
}
