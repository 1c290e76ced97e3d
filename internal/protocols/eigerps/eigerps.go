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
	return &server{id: id, pl: pl, st: store.New(pl.HostedBy(id)...)}
}

// NewClient implements protocol.Protocol.
func (*Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl)}
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
	id sim.ProcessID
	pl *protocol.Placement
	st *store.Store
}

func (s *server) ID() sim.ProcessID { return s.id }
func (s *server) Ready() bool       { return false }
func (s *server) Clone() sim.Process {
	return &server{id: s.id, pl: s.pl, st: s.st.Clone()}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	var out []sim.Outbound
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readReq:
			resp := &readResp{TID: p.TID}
			for _, obj := range p.Objs {
				if v := s.st.LatestVisible(obj); v != nil {
					resp.Vals = append(resp.Vals, model.ValueRef{Object: obj, Value: v.Value, Writer: v.Writer})
				} else {
					resp.Vals = append(resp.Vals, model.ValueRef{Object: obj, Value: model.Bottom})
				}
			}
			out = append(out, sim.Outbound{To: m.From, Payload: resp})
		case *writeReq:
			init := protocol.IsInitClient(sim.ProcessID(p.TID.Client))
			for _, w := range p.Writes {
				// Initializing writes are visible (the system must boot);
				// everything else stays hidden pending the out-of-band
				// mechanism that never arrives in this model.
				s.st.Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Visible: init})
			}
			out = append(out, sim.Outbound{To: m.From, Payload: &writeResp{TID: p.TID}})
			if !init {
				// Kick off the endless synchronization exchange.
				for _, other := range s.pl.Servers() {
					if other != s.id {
						out = append(out, sim.Outbound{To: other, Payload: &syncToken{Round: 1}})
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
				out = append(out, sim.Outbound{To: m.From, Payload: &syncToken{Round: p.Round + 1}})
			}
		default:
			panic(fmt.Sprintf("eigerps: server %s got %T", s.id, m.Payload))
		}
	}
	return out
}

// --- client ---

type client struct {
	protocol.Core
	pending int
}

func (c *client) Clone() sim.Process {
	return &client{Core: c.CloneCore(), pending: c.pending}
}

func (c *client) Ready() bool { return c.Busy() && !c.Started() }

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	var out []sim.Outbound
	for _, m := range inbox {
		if !c.Busy() {
			continue
		}
		switch p := m.Payload.(type) {
		case *readResp:
			if p.TID == c.Current().ID {
				for _, vr := range p.Vals {
					c.Result().Values[vr.Object] = vr.Value
				}
				c.pending--
			}
		case *writeResp:
			if p.TID == c.Current().ID {
				c.pending--
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		pl := c.Placement()
		if len(t.Writes) > 0 && len(t.ReadSet) > 0 {
			c.Reject(now, "eigerps: read-write transactions unsupported")
			return out
		}
		if t.IsReadOnly() {
			for _, sh := range pl.ReadShares(t.ReadSet) {
				out = append(out, sim.Outbound{To: sh.Server, Payload: &readReq{TID: t.ID, Objs: sh.Items}})
				c.pending++
			}
		} else {
			for _, sh := range pl.WriteShares(t.Writes) {
				out = append(out, sim.Outbound{To: sh.Server, Payload: &writeReq{TID: t.ID, Writes: sh.Items}})
				c.pending++
			}
		}
		c.SentRound()
		return out
	}
	if c.Busy() && c.Started() && c.pending == 0 {
		c.Finish(now)
	}
	return out
}

// ShardStore exposes the durable version store for the reconfiguration
// layer's generic catch-up (protocol.StoreCarrier): a replacement server
// adopts missing versions from live peer replicas before serving.
func (s *server) ShardStore() *store.Store { return s.st }
