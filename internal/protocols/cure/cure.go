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
	"slices"

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
		ServerCore: protocol.NewServerCore(id, pl),
		idx:        pl.ServerIndex(id),
		n:          pl.NumServers(),
		known:      vclock.NewVector(pl.NumServers()),
	}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p), dep: vclock.NewVector(pl.NumServers())}
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
	out := make([]model.ValueRef, len(p.Vals))
	for i, v := range p.Vals {
		out[i] = v.Ref
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
	protocol.ServerCore
	idx, n     int
	nextSeq    int64
	applied    int64
	pending    protocol.Pending
	known      vclock.Vector
	lastGossip int64
	parked     []parkedRead
}

func (s *server) Clone() sim.Process {
	c := &server{
		ServerCore: s.CloneServerCore(), idx: s.idx, n: s.n,
		nextSeq: s.nextSeq, applied: s.applied, known: s.known.Clone(),
		lastGossip: s.lastGossip, pending: s.pending.Clone(),
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
	if seq, ok := s.pending.Min(); ok && seq-1 < s.applied {
		return seq - 1
	}
	return s.applied
}

func (s *server) gsv() vclock.Vector {
	g := s.known.Clone()
	g[s.idx] = s.stable()
	return g
}

func (s *server) canServe(snap vclock.Vector) bool { return snap[s.idx] <= s.stable() }

func (s *server) serveRead(from sim.ProcessID, req *readReq) {
	resp := &readResp{TID: req.TID, Vals: make([]readVal, 0, len(req.Objs))}
	for _, obj := range req.Objs {
		// A version is inside the snapshot only if its entire commit
		// vector is dominated: an entry for another server above the
		// snapshot means the version (or a dependency) is not covered.
		// Among covered versions the winner is picked by the uniform
		// vector order, NOT install order: concurrent transactions
		// prepare in different orders at different servers, and an
		// install-order read would fracture their atomic visibility.
		v := s.ShardStore().SnapshotReadVec(obj, req.Snap)
		if v != nil {
			resp.Vals = append(resp.Vals, readVal{
				Ref: model.ValueRef{Object: obj, Value: v.Value, Writer: v.Writer},
				Vec: v.Vec,
			})
		} else {
			resp.Vals = append(resp.Vals, readVal{Ref: model.ValueRef{Object: obj, Value: model.Bottom}})
		}
	}
	s.Send(from, resp)
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	// Retry parked reads first so parking is observable as deferral,
	// keeping the rest in place.
	if len(s.parked) > 0 {
		still := s.parked[:0]
		for _, d := range s.parked {
			if s.canServe(d.Req.Snap) {
				s.serveRead(d.From, d.Req)
			} else {
				still = append(still, d)
			}
		}
		clear(s.parked[len(still):])
		s.parked = still
	}
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *gsvReq:
			s.Send(m.From, &gsvResp{TID: p.TID, GSV: s.gsv()})
		case *readReq:
			if s.canServe(p.Snap) {
				s.serveRead(m.From, p)
			} else {
				s.parked = append(s.parked, parkedRead{From: m.From, Req: p})
			}
		case *prepareReq:
			s.nextSeq++
			seq := s.nextSeq
			s.pending.Add(p.TID, seq)
			vec := vclock.NewVector(s.n)
			vec.Merge(p.Dep)
			vec[s.idx] = seq
			for _, w := range p.Writes {
				s.ShardStore().InstallOrdered(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Vec: vec})
			}
			s.Send(m.From, &prepareAck{TID: p.TID, Idx: s.idx, Seq: seq})
		case *commitReq:
			s.pending.Remove(p.TID)
			s.ShardStore().CommitVec(p.TID, p.Vec)
			if p.Vec[s.idx] > s.applied {
				s.applied = p.Vec[s.idx]
			}
			if s.nextSeq < s.applied {
				s.nextSeq = s.applied
			}
			s.Send(m.From, &commitAck{TID: p.TID, Vec: p.Vec})
		case *gossip:
			if p.Stable > s.known[p.Idx] {
				s.known[p.Idx] = p.Stable
			}
		default:
			panic(fmt.Sprintf("cure: server %s got %T", s.ID(), m.Payload))
		}
	}
	// Gossip the stable sequence when it advances.
	if st := s.stable(); st > s.lastGossip {
		s.lastGossip = st
		for _, other := range s.Placement().Servers() {
			if other != s.ID() {
				s.Send(other, &gossip{Idx: s.idx, Stable: st})
			}
		}
	}
	return s.Sent()
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
	phase phase
	dep   vclock.Vector
	// snap is the active ROT's snapshot. Every read request of the round
	// carries this one vector, so once they are sent it is never written
	// again: the next ROT's gsv reply replaces it.
	snap   vclock.Vector
	commit vclock.Vector
	got    []readVal // the active ROT's, aligned with its ReadSet
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), phase: c.phase, dep: c.dep.Clone(), got: slices.Clone(c.got)}
	if c.snap != nil {
		cp.snap = c.snap.Clone()
	}
	if c.commit != nil {
		cp.commit = c.commit.Clone()
	}
	return cp
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *gsvResp:
			if c.phase == gsvWait && c.Reply(p) {
				c.snap = p.GSV.Clone()
			}
		case *readResp:
			if c.phase == reading && c.Reply(p) {
				for _, v := range p.Vals {
					c.got[slices.Index(c.Current().ReadSet, v.Ref.Object)] = v
				}
			}
		case *prepareAck:
			if c.phase == preparing && c.Reply(p) {
				if p.Seq > c.commit[p.Idx] {
					c.commit[p.Idx] = p.Seq
				}
			}
		case *commitAck:
			if c.phase == committing && c.Reply(p) {
				c.dep.Merge(p.Vec)
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if t.IsReadOnly() {
			c.phase = gsvWait
			c.got = append(c.got, make([]readVal, len(t.ReadSet))...)
			last := t.ReadSet[len(t.ReadSet)-1]
			c.Send(c.Placement().PrimaryOf(last), &gsvReq{TID: t.ID})
		} else {
			c.phase = preparing
			c.commit = c.dep.Clone()
			dep := c.dep.Clone() // every prepare carries this one snapshot
			for _, sh := range c.Placement().WriteShares(t.Writes) {
				c.Send(sh.Server, &prepareReq{TID: t.ID, Writes: sh.Items, Dep: dep})
			}
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		switch c.phase {
		case gsvWait:
			c.snap.Merge(c.dep)
			c.phase = reading
			for _, sh := range c.Placement().ReadShares(t.ReadSet) {
				c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items, Snap: c.snap})
			}
		case reading:
			for i, obj := range t.ReadSet {
				v := c.got[i]
				c.Result().SetValue(obj, v.Ref.Value)
				if v.Vec != nil {
					c.dep.Merge(v.Vec)
				}
			}
			c.phase = idle
			clear(c.got)
			c.got = c.got[:0]
			c.Finish(now)
		case preparing:
			// Every commit carries c.commit itself: no ack writes it
			// after this round, and the next write replaces it.
			c.phase = committing
			for _, srv := range c.Placement().ServersFor(t.WriteSet()) {
				c.Send(srv, &commitReq{TID: t.ID, Vec: c.commit})
			}
		case committing:
			c.phase = idle
			c.Finish(now)
		}
	}
	return c.Sent()
}
