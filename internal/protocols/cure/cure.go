// Package cure models Cure (Akkoorath et al., ICDCS 2016): causally
// consistent multi-object write transactions (two-phase commit with vector
// timestamps) and read-only transactions that read at a globally stable
// vector snapshot. Reads take two rounds (snapshot fetch + reads) and
// block whenever the snapshot is ahead of a server's locally stable state
// — in particular while a prepared-but-uncommitted transaction sits below
// the snapshot.
package cure

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Protocol is the cure factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "cure" }

// Claims implements protocol.Protocol.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      false,
		OneValue:      true,
		NonBlocking:   false,
		MultiWriteTxn: true,
		Consistency:   "causal",
	}
}

// NewServer implements protocol.Protocol.
func (*Protocol) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &server{
		id: id, pl: pl, st: store.New(pl.HostedBy(id)...),
		idx: pl.ServerIndex(id), n: pl.NumServers(),
		known:   vclock.NewVector(pl.NumServers()),
		pending: make(map[model.TxnID]int64),
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

type prepareReq struct {
	TID    model.TxnID
	Writes []model.Write
	Dep    vclock.Vector
}

func (p *prepareReq) Kind() string     { return "prepare" }
func (p *prepareReq) Txn() model.TxnID { return p.TID }

type prepareAck struct {
	TID model.TxnID
	Idx int
	Seq int64
}

func (p *prepareAck) Kind() string     { return "prepare-ack" }
func (p *prepareAck) Txn() model.TxnID { return p.TID }

type commitReq struct {
	TID model.TxnID
	Vec vclock.Vector
}

func (p *commitReq) Kind() string     { return "commit" }
func (p *commitReq) Txn() model.TxnID { return p.TID }

type commitAck struct {
	TID model.TxnID
	Vec vclock.Vector
}

func (p *commitAck) Kind() string     { return "commit-ack" }
func (p *commitAck) Txn() model.TxnID { return p.TID }

type gossip struct {
	Idx    int
	Stable int64
}

func (p *gossip) Kind() string { return "stable-gossip" }

// --- server ---

type parkedRead struct {
	From sim.ProcessID
	Req  *readReq
}

type server struct {
	id         sim.ProcessID
	pl         *protocol.Placement
	st         *store.Store
	idx, n     int
	nextSeq    int64
	applied    int64
	pending    map[model.TxnID]int64
	known      vclock.Vector
	lastGossip int64
	parked     []parkedRead
}

func (s *server) ID() sim.ProcessID { return s.id }
func (s *server) Ready() bool       { return false } // parks resolve on commit arrival

func (s *server) Clone() sim.Process {
	c := &server{
		id: s.id, pl: s.pl, st: s.st.Clone(), idx: s.idx, n: s.n,
		nextSeq: s.nextSeq, applied: s.applied, known: s.known.Clone(),
		lastGossip: s.lastGossip,
		pending:    make(map[model.TxnID]int64, len(s.pending)),
	}
	for k, v := range s.pending {
		c.pending[k] = v
	}
	for _, d := range s.parked {
		cp := *d.Req
		cp.Snap = d.Req.Snap.Clone()
		c.parked = append(c.parked, parkedRead{From: d.From, Req: &cp})
	}
	return c
}

// stable is the largest sequence with no pending prepare at or below it.
func (s *server) stable() int64 {
	st := s.applied
	for _, seq := range s.pending {
		if seq-1 < st {
			st = seq - 1
		}
	}
	return st
}

func (s *server) gsv() vclock.Vector {
	g := s.known.Clone()
	g[s.idx] = s.stable()
	return g
}

func (s *server) canServe(snap vclock.Vector) bool { return snap[s.idx] <= s.stable() }

func (s *server) serveRead(from sim.ProcessID, req *readReq) sim.Outbound {
	resp := &readResp{TID: req.TID}
	for _, obj := range req.Objs {
		// A version is inside the snapshot only if its entire commit
		// vector is dominated: an entry for another server above the
		// snapshot means the version (or a dependency) is not covered.
		// Among covered versions the winner is picked by the uniform
		// vector order, NOT install order: concurrent transactions
		// prepare in different orders at different servers, and an
		// install-order read would fracture their atomic visibility.
		v := s.st.SnapshotReadVec(obj, req.Snap)
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
	// Retry parked reads first so parking is observable as deferral.
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
		case *prepareReq:
			s.nextSeq++
			seq := s.nextSeq
			s.pending[p.TID] = seq
			vec := vclock.NewVector(s.n)
			vec.Merge(p.Dep)
			vec[s.idx] = seq
			for _, w := range p.Writes {
				s.st.InstallOrdered(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Vec: vec})
			}
			out = append(out, sim.Outbound{To: m.From, Payload: &prepareAck{TID: p.TID, Idx: s.idx, Seq: seq}})
		case *commitReq:
			delete(s.pending, p.TID)
			s.st.CommitVec(p.TID, p.Vec)
			if p.Vec[s.idx] > s.applied {
				s.applied = p.Vec[s.idx]
			}
			if s.nextSeq < s.applied {
				s.nextSeq = s.applied
			}
			out = append(out, sim.Outbound{To: m.From, Payload: &commitAck{TID: p.TID, Vec: p.Vec.Clone()}})
		case *gossip:
			if p.Stable > s.known[p.Idx] {
				s.known[p.Idx] = p.Stable
			}
		default:
			panic(fmt.Sprintf("cure: server %s got %T", s.id, m.Payload))
		}
	}
	// Gossip the stable sequence when it advances.
	if st := s.stable(); st > s.lastGossip {
		s.lastGossip = st
		for _, other := range s.pl.Servers() {
			if other != s.id {
				out = append(out, sim.Outbound{To: other, Payload: &gossip{Idx: s.idx, Stable: st}})
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
	preparing
	committing
)

type client struct {
	protocol.Core
	phase   phase
	pending int
	dep     vclock.Vector
	snap    vclock.Vector
	commit  vclock.Vector
	writeTo []sim.ProcessID
	got     map[string]readVal
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), phase: c.phase, pending: c.pending, dep: c.dep.Clone()}
	if c.snap != nil {
		cp.snap = c.snap.Clone()
	}
	if c.commit != nil {
		cp.commit = c.commit.Clone()
	}
	cp.writeTo = append([]sim.ProcessID(nil), c.writeTo...)
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
		case *prepareAck:
			if p.TID == c.Current().ID && c.phase == preparing {
				if p.Seq > c.commit[p.Idx] {
					c.commit[p.Idx] = p.Seq
				}
				c.pending--
			}
		case *commitAck:
			if p.TID == c.Current().ID && c.phase == committing {
				c.dep.Merge(p.Vec)
				c.pending--
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if len(t.Writes) > 0 && len(t.ReadSet) > 0 {
			c.Reject(now, "cure: read-write transactions unsupported in this model")
			return out
		}
		if t.IsReadOnly() {
			c.phase = gsvWait
			c.got = make(map[string]readVal)
			last := t.ReadSet[len(t.ReadSet)-1]
			out = append(out, sim.Outbound{To: c.Placement().PrimaryOf(last), Payload: &gsvReq{TID: t.ID}})
			c.pending = 1
		} else {
			c.phase = preparing
			c.commit = c.dep.Clone()
			c.writeTo = nil
			for _, sh := range c.Placement().WriteShares(t.Writes) {
				c.writeTo = append(c.writeTo, sh.Server)
				out = append(out, sim.Outbound{To: sh.Server, Payload: &prepareReq{
					TID: t.ID, Writes: sh.Items, Dep: c.dep.Clone(),
				}})
				c.pending++
			}
		}
		c.SentRound()
		return out
	}
	if c.Busy() && c.Started() && c.pending == 0 {
		t := c.Current()
		switch c.phase {
		case gsvWait:
			c.snap.Merge(c.dep)
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
		case preparing:
			c.phase = committing
			for _, srv := range c.writeTo {
				out = append(out, sim.Outbound{To: srv, Payload: &commitReq{TID: t.ID, Vec: c.commit.Clone()}})
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
