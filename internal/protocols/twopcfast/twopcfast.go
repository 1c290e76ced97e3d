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
	return &server{ServerCore: protocol.NewLatestServerCore(id, pl)}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p)}
}

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
		case *protocol.Prepare[struct{}]:
			for _, w := range p.Writes {
				s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID})
			}
			s.Send(m.From, &protocol.Prepared[struct{}]{Msg: p.Msg})
		case *protocol.Commit[struct{}]:
			s.ShardStore().Commit(p.TID)
			s.Send(m.From, &protocol.Committed{Msg: p.Msg})
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
		case *protocol.ReadReply[struct{}]:
			if c.phase == reading && c.Reply(p) {
				p.Fill(&c.Core)
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
		if c.Current().IsReadOnly() {
			c.phase = reading
			protocol.SendReads(&c.Core, struct{}{})
		} else {
			c.phase = preparing
			protocol.SendPrepares(&c.Core, struct{}{})
		}
		return c.Sent()
	}
	if c.RoundDone() {
		switch c.phase {
		case reading:
			c.phase = idle
			c.Finish(now)
		case preparing:
			// All prepared: commit everywhere.
			c.phase = committing
			protocol.SendCommits(&c.Core, struct{}{})
		case committing:
			c.phase = idle
			c.Finish(now)
		}
	}
	return c.Sent()
}
