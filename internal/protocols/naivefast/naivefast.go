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
	return &server{ServerCore: protocol.NewLatestServerCore(id, pl)}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p)}
}

// Placement aliases protocol.Placement for the constructor signatures.
type Placement = protocol.Placement

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
			for _, w := range p.Writes {
				s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Visible: true})
			}
			s.Send(m.From, &protocol.WriteAck[struct{}]{Msg: p.Msg})
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
		case *protocol.ReadReply[struct{}]:
			if c.Reply(p) {
				p.Fill(&c.Core)
			}
		case *protocol.WriteAck[struct{}]:
			c.Reply(p)
		}
	}
	if c.Starting(now) {
		// Reads go to the primary replica of each object; writes go to
		// every replica of the written object.
		protocol.SendReads(&c.Core, struct{}{})
		protocol.SendWrites(&c.Core, struct{}{})
	}
	if c.RoundDone() {
		// All responses in: complete.
		c.Finish(now)
	}
	return c.Sent()
}
