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
// fast — one round, one value, non-blocking — and only ever see the
// initial values. That is causally consistent for every client but the
// writer: a client that reads back an object it wrote sees the initial
// value, and the causal checker, whose definition includes a client's own
// writes, refuses the history.
//
// The theorem adversary's verdict is exactly the paper's criticism: the
// protocol violates minimal progress (Definition 3) — its troublesome
// execution α really is infinite, with a server message ms_k in every
// induction segment and the written values never visible.
package eigerps

import (
	"fmt"

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
	return &server{ServerCore: protocol.NewLatestServerCore(id, pl)}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p)}
}

// --- payloads ---

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
		case *protocol.Read[struct{}]:
			resp := protocol.ReplyTo[struct{}](p)
			for _, obj := range p.Objs {
				resp.Add(obj, s.ShardStore().LatestVisible(obj), struct{}{})
			}
			s.Send(m.From, resp)
		case *protocol.Write[struct{}]:
			init := protocol.IsInitClient(sim.ProcessID(p.TID.Client))
			for _, w := range p.Writes {
				// Initializing writes are visible (the system must boot);
				// everything else stays hidden pending the out-of-band
				// mechanism that never arrives in this model.
				s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Visible: init})
			}
			s.Send(m.From, &protocol.WriteAck[struct{}]{Msg: p.Msg})
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
		case *protocol.ReadReply[struct{}]:
			if c.Reply(p) {
				p.Fill(&c.Core)
			}
		case *protocol.WriteAck[struct{}]:
			c.Reply(p)
		}
	}
	if c.Starting(now) {
		if c.Current().IsReadOnly() {
			protocol.SendReads(&c.Core, struct{}{})
		} else {
			protocol.SendWrites(&c.Core, struct{}{})
		}
		return c.Sent()
	}
	if c.RoundDone() {
		c.Finish(now)
	}
	return c.Sent()
}
