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
		stab:       protocol.NewStabilizer[int64, protocol.Counters](stableKinds, id, pl),
	}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p), dep: vclock.NewVector(pl.NumServers())}
}

// --- payloads ---

// stableKinds: servers gossip their stable sequence, a ROT fetches the GSV.
var stableKinds = &protocol.StableKinds{Gossip: "stable-gossip", Req: "gsv-req", Resp: "gsv-resp"}

// prepared is a prepare ack's stamp: the server's index and the sequence
// it gave the transaction.
type prepared struct {
	Idx int
	Seq int64
}

// --- server ---

type server struct {
	protocol.ServerCore
	idx, n  int
	nextSeq int64
	applied int64
	pending protocol.Pending[int64, protocol.Counters]
	stab    protocol.Stabilizer[int64, protocol.Counters]
	parked  protocol.Parked[*protocol.Read[vclock.Vector]]
}

func (s *server) Clone() sim.Process {
	return &server{
		ServerCore: s.CloneServerCore(), idx: s.idx, n: s.n,
		nextSeq: s.nextSeq, applied: s.applied, stab: s.stab.Clone(),
		pending: s.pending.Clone(), parked: s.parked.Clone(),
	}
}

// stable is the largest sequence with no pending prepare at or below it.
func (s *server) stable() int64 {
	if seq, ok := s.pending.Min(); ok && seq-1 < s.applied {
		return seq - 1
	}
	return s.applied
}

// ReadPoint implements protocol.ReadPointer: every later snapshot covers
// the one this server hands out now.
func (s *server) ReadPoint(sim.Time) (store.Horizon, bool) {
	return store.Horizon{Vec: s.stab.Vector(s.stable())}, true
}

func (s *server) canServe(req *protocol.Read[vclock.Vector]) bool { return req.At[s.idx] <= s.stable() }

func (s *server) serveRead(from sim.ProcessID, req *protocol.Read[vclock.Vector]) {
	resp := protocol.ReplyTo[vclock.Vector](req)
	for _, obj := range req.Objs {
		// A version is inside the snapshot only if its entire commit
		// vector is dominated: an entry for another server above the
		// snapshot means the version (or a dependency) is not covered.
		// Among covered versions the winner is picked by the uniform
		// vector order, NOT install order: concurrent transactions
		// prepare in different orders at different servers, and an
		// install-order read would fracture their atomic visibility.
		v := s.ShardStore().SnapshotReadVec(obj, req.At)
		var vec vclock.Vector
		if v != nil {
			vec = v.Vec
		}
		resp.Add(obj, v, vec)
	}
	s.Send(from, resp)
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	// Retry parked reads first so parking is observable as deferral.
	s.parked.Retry(s.canServe, s.serveRead)
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.StableReq:
			s.Send(m.From, protocol.Answer(p, vclock.Vector(s.stab.Vector(s.stable()))))
		case *protocol.Read[vclock.Vector]:
			s.parked.Offer(m.From, p, s.canServe, s.serveRead)
		case *protocol.Prepare[vclock.Vector]:
			s.nextSeq++
			seq := s.nextSeq
			s.pending.Add(p.TID, seq)
			vec := vclock.NewVector(s.n)
			vec.Merge(p.Dep)
			vec[s.idx] = seq
			for _, w := range p.Writes {
				s.ShardStore().InstallOrdered(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Vec: vec})
			}
			s.Send(m.From, &protocol.Prepared[prepared]{Msg: p.Msg, Stamp: prepared{Idx: s.idx, Seq: seq}})
		case *protocol.Commit[vclock.Vector]:
			s.pending.Remove(p.TID)
			s.ShardStore().CommitVec(p.TID, p.Stamp)
			if p.Stamp[s.idx] > s.applied {
				s.applied = p.Stamp[s.idx]
			}
			if s.nextSeq < s.applied {
				s.nextSeq = s.applied
			}
			s.Send(m.From, &protocol.Committed{Msg: p.Msg})
		case *protocol.StableGossip[int64]:
			s.stab.Heard(p)
		default:
			panic(fmt.Sprintf("cure: server %s got %T", s.ID(), m.Payload))
		}
	}
	// Gossip the stable sequence when it advances.
	s.stab.Publish(&s.ServerCore, s.stable())
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
	got    protocol.Gather[vclock.Vector]
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), phase: c.phase, dep: c.dep.Clone(), got: c.got.Clone()}
	if c.snap != nil {
		cp.snap = c.snap.Clone()
	}
	if c.commit != nil {
		cp.commit = c.commit.Clone()
	}
	return cp
}

// ReadPoint implements protocol.ReadPointer: a ROT's snapshot covers dep.
func (c *client) ReadPoint(sim.Time) (store.Horizon, bool) {
	return store.Horizon{Vec: c.dep}, c.phase == gsvWait || c.phase == reading
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.StableResp[vclock.Vector]:
			if c.phase == gsvWait && c.Reply(p) {
				c.snap = p.Snap.Clone()
			}
		case *protocol.ReadReply[vclock.Vector]:
			if c.phase == reading && c.Reply(p) {
				c.got.Put(&c.Core, p, nil)
			}
		case *protocol.Prepared[prepared]:
			if c.phase == preparing && c.Reply(p) {
				if p.Stamp.Seq > c.commit[p.Stamp.Idx] {
					c.commit[p.Stamp.Idx] = p.Stamp.Seq
				}
			}
		case *protocol.Committed:
			if c.phase == committing {
				c.Reply(p)
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if t.IsReadOnly() {
			c.phase = gsvWait
			c.got.Start(&c.Core)
			last := t.ReadSet[len(t.ReadSet)-1]
			c.Send(c.Placement().PrimaryOf(last), stableKinds.Request(t.ID))
		} else {
			c.phase = preparing
			c.commit = c.dep.Clone()
			// Every prepare carries this one dependency snapshot.
			protocol.SendPrepares(&c.Core, c.dep.Clone())
		}
		return c.Sent()
	}
	if c.RoundDone() {
		switch c.phase {
		case gsvWait:
			c.snap.Merge(c.dep)
			c.phase = reading
			protocol.SendReads(&c.Core, c.snap)
		case reading:
			for _, v := range c.got.Vals {
				if v.Meta != nil {
					c.dep.Merge(v.Meta)
				}
			}
			c.got.Fill(&c.Core)
			c.phase = idle
			c.Finish(now)
		case preparing:
			// Every commit carries c.commit itself: no ack writes it
			// after this round, and the next write replaces it.
			c.phase = committing
			protocol.SendCommits(&c.Core, c.commit)
		case committing:
			c.dep.Merge(c.commit)
			c.phase = idle
			c.Finish(now)
		}
	}
	return c.Sent()
}
