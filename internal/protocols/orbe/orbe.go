// Package orbe models Orbe (Du et al., SoCC 2013): causal consistency via
// dependency vectors (the DM protocol's dependency matrices collapse to
// one row per server in our single-datacenter deployment). Writes are
// single-object; each server numbers its writes with a local counter and
// versions are identified by (server, seq). Read-only transactions take
// two rounds: fetch a global stable vector, then read at the (causal-past-
// raised) snapshot vector; a server parks a read whose snapshot entry is
// ahead of its applied counter. In a disjoint single-cluster deployment
// the parking path only triggers for causally-ahead readers — the paper's
// N=no for Orbe refers to geo-replicated operation, where replication lag
// makes it common.
package orbe

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Protocol is the orbe factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "orbe" }

// Claims implements protocol.Protocol.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      false,
		OneValue:      true,
		NonBlocking:   false,
		MultiWriteTxn: false,
		Consistency:   "causal",
	}
}

// NewServer implements protocol.Protocol.
func (*Protocol) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &server{
		id: id, pl: pl, st: store.New(pl.HostedBy(id)...),
		idx: pl.ServerIndex(id), n: pl.NumServers(),
		known: vclock.NewVector(pl.NumServers()),
	}
}

// NewClient implements protocol.Protocol.
func (*Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl), dep: vclock.NewVector(pl.NumServers())}
}

// --- payloads ---

type gsvReq struct{ TID model.TxnID }

func (p *gsvReq) Kind() string     { return "gsv-req" }
func (p *gsvReq) Txn() model.TxnID { return p.TID }

type gsvResp struct {
	TID model.TxnID
	GSV vclock.Vector
}

func (p *gsvResp) Kind() string     { return "gsv-resp" }
func (p *gsvResp) Txn() model.TxnID { return p.TID }

type readReq struct {
	TID  model.TxnID
	Objs []string
	Snap vclock.Vector
}

func (p *readReq) Kind() string     { return "read-req" }
func (p *readReq) Txn() model.TxnID { return p.TID }

type readVal struct {
	Ref model.ValueRef
	Vec vclock.Vector
}

type readResp struct {
	TID  model.TxnID
	Vals []readVal
}

func (p *readResp) Kind() string     { return "read-resp" }
func (p *readResp) Txn() model.TxnID { return p.TID }
func (p *readResp) CarriedValues() []model.ValueRef {
	out := make([]model.ValueRef, 0, len(p.Vals))
	for _, v := range p.Vals {
		if v.Ref.Value != model.Bottom {
			out = append(out, v.Ref)
		}
	}
	return out
}

type writeReq struct {
	TID model.TxnID
	W   model.Write
	Dep vclock.Vector
}

func (p *writeReq) Kind() string     { return "write-req" }
func (p *writeReq) Txn() model.TxnID { return p.TID }

type writeResp struct {
	TID model.TxnID
	Vec vclock.Vector
}

func (p *writeResp) Kind() string     { return "write-ack" }
func (p *writeResp) Txn() model.TxnID { return p.TID }

type gossip struct {
	From sim.ProcessID
	Idx  int
	Cnt  int64
}

func (p *gossip) Kind() string { return "cnt-gossip" }

// --- server ---

type parkedRead struct {
	From sim.ProcessID
	Req  *readReq
}

type server struct {
	id     sim.ProcessID
	pl     *protocol.Placement
	st     *store.Store
	idx, n int
	cnt    int64 // local applied-write counter
	known  vclock.Vector
	parked []parkedRead
}

func (s *server) ID() sim.ProcessID { return s.id }
func (s *server) Ready() bool       { return false } // parks resolve on write arrival

func (s *server) Clone() sim.Process {
	c := &server{id: s.id, pl: s.pl, st: s.st.Clone(), idx: s.idx, n: s.n, cnt: s.cnt, known: s.known.Clone()}
	for _, d := range s.parked {
		cp := *d.Req
		cp.Snap = d.Req.Snap.Clone()
		c.parked = append(c.parked, parkedRead{From: d.From, Req: &cp})
	}
	return c
}

func (s *server) gsv() vclock.Vector {
	g := s.known.Clone()
	g[s.idx] = s.cnt
	return g
}

func (s *server) canServe(snap vclock.Vector) bool { return snap[s.idx] <= s.cnt }

func (s *server) serveRead(from sim.ProcessID, req *readReq) sim.Outbound {
	resp := &readResp{TID: req.TID}
	for _, obj := range req.Objs {
		// Entire dependency vector must be dominated by the snapshot —
		// an entry above it means a dependency is outside the snapshot.
		v := s.st.Latest(obj, func(v *store.Version) bool {
			return v.Visible && v.Vec.LessEq(req.Snap)
		})
		if v != nil {
			resp.Vals = append(resp.Vals, readVal{
				Ref: model.ValueRef{Object: obj, Value: v.Value, Writer: v.Writer},
				Vec: v.Vec,
			})
		} else {
			resp.Vals = append(resp.Vals, readVal{Ref: model.ValueRef{Object: obj, Value: model.Bottom}})
		}
	}
	return sim.Outbound{To: from, Payload: resp}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	var out []sim.Outbound
	// Retry parked reads before consuming new input (so a park is always
	// observable as a deferred response).
	if len(s.parked) > 0 {
		var still []parkedRead
		for _, d := range s.parked {
			if s.canServe(d.Req.Snap) {
				out = append(out, s.serveRead(d.From, d.Req))
			} else {
				still = append(still, d)
			}
		}
		s.parked = still
	}
	gossipDue := false
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *gsvReq:
			out = append(out, sim.Outbound{To: m.From, Payload: &gsvResp{TID: p.TID, GSV: s.gsv()}})
		case *readReq:
			if s.canServe(p.Snap) {
				out = append(out, s.serveRead(m.From, p))
			} else {
				s.parked = append(s.parked, parkedRead{From: m.From, Req: p})
			}
		case *writeReq:
			s.cnt++
			vec := vclock.NewVector(s.n)
			vec.Merge(p.Dep)
			vec[s.idx] = s.cnt
			s.st.Install(&store.Version{Object: p.W.Object, Value: p.W.Value, Writer: p.TID, Vec: vec, Visible: true})
			out = append(out, sim.Outbound{To: m.From, Payload: &writeResp{TID: p.TID, Vec: vec}})
			gossipDue = true
		case *gossip:
			if p.Cnt > s.known[p.Idx] {
				s.known[p.Idx] = p.Cnt
			}
		default:
			panic(fmt.Sprintf("orbe: server %s got %T", s.id, m.Payload))
		}
	}
	if gossipDue {
		for _, other := range s.pl.Servers() {
			if other != s.id {
				out = append(out, sim.Outbound{To: other, Payload: &gossip{From: s.id, Idx: s.idx, Cnt: s.cnt}})
			}
		}
	}
	return out
}

// --- client ---

type phase uint8

const (
	idle phase = iota
	gsvWait
	reading
	writing
)

type client struct {
	protocol.Core
	phase   phase
	pending int
	dep     vclock.Vector
	snap    vclock.Vector
	got     map[string]readVal
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), phase: c.phase, pending: c.pending, dep: c.dep.Clone()}
	if c.snap != nil {
		cp.snap = c.snap.Clone()
	}
	if c.got != nil {
		cp.got = make(map[string]readVal, len(c.got))
		for k, v := range c.got {
			cp.got[k] = v
		}
	}
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
		case *gsvResp:
			if p.TID == c.Current().ID && c.phase == gsvWait {
				c.snap = p.GSV.Clone()
				c.pending--
			}
		case *readResp:
			if p.TID == c.Current().ID && c.phase == reading {
				for _, v := range p.Vals {
					c.got[v.Ref.Object] = v
				}
				c.pending--
			}
		case *writeResp:
			if p.TID == c.Current().ID && c.phase == writing {
				c.dep.Merge(p.Vec)
				c.pending--
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if len(t.WriteSet()) > 1 {
			c.Reject(now, "orbe: multi-object write transactions unsupported")
			return out
		}
		if len(t.Writes) > 0 && len(t.ReadSet) > 0 {
			c.Reject(now, "orbe: read-write transactions unsupported")
			return out
		}
		if t.IsReadOnly() {
			c.phase = gsvWait
			c.got = make(map[string]readVal)
			last := t.ReadSet[len(t.ReadSet)-1]
			out = append(out, sim.Outbound{To: c.Placement().PrimaryOf(last), Payload: &gsvReq{TID: t.ID}})
			c.pending = 1
		} else {
			c.phase = writing
			w := t.Writes[len(t.Writes)-1]
			out = append(out, sim.Outbound{To: c.Placement().PrimaryOf(w.Object), Payload: &writeReq{
				TID: t.ID, W: w, Dep: c.dep.Clone(),
			}})
			c.pending = 1
		}
		c.SentRound()
		return out
	}
	if c.Busy() && c.Started() && c.pending == 0 {
		t := c.Current()
		switch c.phase {
		case gsvWait:
			c.snap.Merge(c.dep) // snapshot covers the causal past
			c.phase = reading
			for _, sh := range c.Placement().ReadShares(t.ReadSet) {
				out = append(out, sim.Outbound{To: sh.Server, Payload: &readReq{TID: t.ID, Objs: sh.Items, Snap: c.snap.Clone()}})
				c.pending++
			}
			c.SentRound()
		case reading:
			for _, obj := range t.ReadSet {
				v := c.got[obj]
				c.Result().Values[obj] = v.Ref.Value
				if v.Vec != nil {
					c.dep.Merge(v.Vec)
				}
			}
			c.phase = idle
			c.got = nil
			c.Finish(now)
		case writing:
			c.phase = idle
			c.Finish(now)
		}
	}
	return out
}

// ShardStore exposes the durable version store for the reconfiguration
// layer's generic catch-up (protocol.StoreCarrier): a replacement server
// adopts missing versions from live peer replicas before serving.
func (s *server) ShardStore() *store.Store { return s.st }
