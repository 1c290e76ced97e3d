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
	return &server{id: id, pl: pl, st: store.New(pl.HostedBy(id)...)}
}

// NewClient implements protocol.Protocol.
func (*Protocol) NewClient(id sim.ProcessID, pl *Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl)}
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
	id sim.ProcessID
	pl *Placement
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
			for _, w := range p.Writes {
				s.st.Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Visible: true})
			}
			out = append(out, sim.Outbound{To: m.From, Payload: &writeResp{TID: p.TID}})
		default:
			panic(fmt.Sprintf("naivefast: server %s got %T", s.id, m.Payload))
		}
	}
	return out
}

// --- client ---

type client struct {
	protocol.Core
	// pending counts outstanding responses; -1 marks "not yet started".
	pending int
}

func (c *client) Clone() sim.Process {
	return &client{Core: c.CloneCore(), pending: c.pending}
}

func (c *client) Ready() bool { return c.Busy() && !c.Started() }

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	var out []sim.Outbound
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readResp:
			if c.Busy() && p.TID == c.Current().ID {
				for _, vr := range p.Vals {
					c.Result().Values[vr.Object] = vr.Value
				}
				c.pending--
			}
		case *writeResp:
			if c.Busy() && p.TID == c.Current().ID {
				c.pending--
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		pl := c.Placement()
		// Reads go to the primary replica of each object; writes go to
		// every replica of the written object.
		// A read-write transaction sends server by server, a server's
		// reads before its writes.
		reads, writes := pl.ReadShares(t.ReadSet), pl.WriteShares(t.Writes)
		for len(reads)+len(writes) > 0 {
			if len(writes) == 0 || len(reads) > 0 && reads[0].Server <= writes[0].Server {
				out = append(out, sim.Outbound{To: reads[0].Server, Payload: &readReq{TID: t.ID, Objs: reads[0].Items}})
				reads = reads[1:]
			} else {
				out = append(out, sim.Outbound{To: writes[0].Server, Payload: &writeReq{TID: t.ID, Writes: writes[0].Items}})
				writes = writes[1:]
			}
			c.pending++
		}
		c.SentRound()
	}
	if c.Busy() && c.Started() && c.pending == 0 {
		// All responses in: complete.
		c.Finish(now)
	}
	return out
}

// ShardStore exposes the durable version store for the reconfiguration
// layer's generic catch-up (protocol.StoreCarrier): a replacement server
// adopts missing versions from live peer replicas before serving.
func (s *server) ShardStore() *store.Store { return s.st }
