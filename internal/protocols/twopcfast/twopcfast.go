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

func (p *readReq) Kind() string               { return "read-req" }
func (p *readReq) Txn() model.TxnID           { return p.TID }
func (p *readReq) PayloadRole() protocol.Role { return protocol.RoleReadReq }

type readResp struct {
	TID  model.TxnID
	Vals []model.ValueRef
}

func (p *readResp) Kind() string                    { return "read-resp" }
func (p *readResp) Txn() model.TxnID                { return p.TID }
func (p *readResp) PayloadRole() protocol.Role      { return protocol.RoleReadResp }
func (p *readResp) CarriedValues() []model.ValueRef { return p.Vals }

type prepareReq struct {
	TID    model.TxnID
	Writes []model.Write
}

func (p *prepareReq) Kind() string               { return "prepare" }
func (p *prepareReq) Txn() model.TxnID           { return p.TID }
func (p *prepareReq) PayloadRole() protocol.Role { return protocol.RoleWriteReq }

type prepareAck struct {
	TID model.TxnID
}

func (p *prepareAck) Kind() string               { return "prepare-ack" }
func (p *prepareAck) Txn() model.TxnID           { return p.TID }
func (p *prepareAck) PayloadRole() protocol.Role { return protocol.RoleWriteResp }

type commitReq struct {
	TID model.TxnID
}

func (p *commitReq) Kind() string               { return "commit" }
func (p *commitReq) Txn() model.TxnID           { return p.TID }
func (p *commitReq) PayloadRole() protocol.Role { return protocol.RoleWriteReq }

type commitAck struct {
	TID model.TxnID
}

func (p *commitAck) Kind() string               { return "commit-ack" }
func (p *commitAck) Txn() model.TxnID           { return p.TID }
func (p *commitAck) PayloadRole() protocol.Role { return protocol.RoleWriteResp }

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
		case *prepareReq:
			for _, w := range p.Writes {
				s.st.Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID})
			}
			out = append(out, sim.Outbound{To: m.From, Payload: &prepareAck{TID: p.TID}})
		case *commitReq:
			s.st.Commit(p.TID)
			out = append(out, sim.Outbound{To: m.From, Payload: &commitAck{TID: p.TID}})
		default:
			panic(fmt.Sprintf("twopcfast: server %s got %T", s.id, m.Payload))
		}
	}
	return out
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
	phase   phase
	pending int
	writeTo []sim.ProcessID // servers involved in the write
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), phase: c.phase, pending: c.pending}
	cp.writeTo = append([]sim.ProcessID(nil), c.writeTo...)
	return cp
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
			if p.TID == c.Current().ID && c.phase == reading {
				for _, vr := range p.Vals {
					c.Result().Values[vr.Object] = vr.Value
				}
				c.pending--
			}
		case *prepareAck:
			if p.TID == c.Current().ID && c.phase == preparing {
				c.pending--
			}
		case *commitAck:
			if p.TID == c.Current().ID && c.phase == committing {
				c.pending--
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		pl := c.Placement()
		if len(t.Writes) > 0 && len(t.ReadSet) > 0 {
			c.Reject(now, "twopcfast: read-write transactions unsupported")
			return out
		}
		if t.IsReadOnly() {
			c.phase = reading
			for _, sh := range pl.ReadShares(t.ReadSet) {
				out = append(out, sim.Outbound{To: sh.Server, Payload: &readReq{TID: t.ID, Objs: sh.Items}})
				c.pending++
			}
			c.SentRound()
		} else {
			c.phase = preparing
			c.writeTo = nil
			for _, sh := range pl.WriteShares(t.Writes) {
				out = append(out, sim.Outbound{To: sh.Server, Payload: &prepareReq{TID: t.ID, Writes: sh.Items}})
				c.writeTo = append(c.writeTo, sh.Server)
				c.pending++
			}
			c.SentRound()
		}
		return out
	}
	if c.Busy() && c.Started() && c.pending == 0 {
		switch c.phase {
		case reading:
			c.phase = idle
			c.Finish(now)
		case preparing:
			// All prepared: commit everywhere.
			c.phase = committing
			for _, srv := range c.writeTo {
				out = append(out, sim.Outbound{To: srv, Payload: &commitReq{TID: c.Current().ID}})
				c.pending++
			}
			c.SentRound()
		case committing:
			c.phase = idle
			c.writeTo = nil
			c.Finish(now)
		}
	}
	return out
}

// ShardStore exposes the durable version store for the reconfiguration
// layer's generic catch-up (protocol.StoreCarrier): a replacement server
// adopts missing versions from live peer replicas before serving.
func (s *server) ShardStore() *store.Store { return s.st }
