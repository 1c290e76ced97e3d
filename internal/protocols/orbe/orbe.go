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

// stableKinds: servers gossip their write counter, a ROT fetches the GSV.
var stableKinds = &protocol.StableKinds{Gossip: "cnt-gossip", Req: "gsv-req", Resp: "gsv-resp"}

// --- server ---

type server struct {
	protocol.ServerCore
	idx, n int
	cnt    int64 // local applied-write counter
	stab   protocol.Stabilizer[int64, protocol.Counters]
	parked protocol.Parked[*protocol.Read[vclock.Vector]]
}

func (s *server) Clone() sim.Process {
	return &server{
		ServerCore: s.CloneServerCore(), idx: s.idx, n: s.n, cnt: s.cnt,
		stab: s.stab.Clone(), parked: s.parked.Clone(),
	}
}

func (s *server) canServe(req *protocol.Read[vclock.Vector]) bool { return req.At[s.idx] <= s.cnt }

func (s *server) serveRead(from sim.ProcessID, req *protocol.Read[vclock.Vector]) {
	resp := protocol.ReplyTo[vclock.Vector](req)
	for _, obj := range req.Objs {
		// Entire dependency vector must be dominated by the snapshot —
		// an entry above it means a dependency is outside the snapshot.
		v := s.ShardStore().Latest(obj, func(v *store.Version) bool {
			return v.Visible && v.Vec.LessEq(req.At)
		})
		var vec vclock.Vector
		if v != nil {
			vec = v.Vec
		}
		resp.Add(obj, v, vec)
	}
	s.Send(from, resp)
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	// Retry parked reads before consuming new input (so a park is always
	// observable as a deferred response).
	s.parked.Retry(s.canServe, s.serveRead)
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.StableReq:
			s.Send(m.From, protocol.Answer(p, vclock.Vector(s.stab.Vector(s.cnt))))
		case *protocol.Read[vclock.Vector]:
			s.parked.Offer(m.From, p, s.canServe, s.serveRead)
		case *protocol.Write[vclock.Vector]:
			s.cnt++
			vec := vclock.NewVector(s.n)
			vec.Merge(p.Dep)
			vec[s.idx] = s.cnt
			w := p.Writes[0]
			s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Vec: vec, Visible: true})
			s.Send(m.From, &protocol.WriteAck[vclock.Vector]{Msg: p.Msg, Stamp: vec})
		case *protocol.StableGossip[int64]:
			s.stab.Heard(p)
		default:
			panic(fmt.Sprintf("orbe: server %s got %T", s.ID(), m.Payload))
		}
	}
	// Gossip the counter when a write advanced it.
	s.stab.Publish(&s.ServerCore, s.cnt)
	return s.Sent()
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
	phase phase
	dep   vclock.Vector
	// snap is the active ROT's snapshot, which every read of the round
	// carries: the next ROT's gsv reply replaces it, nothing writes it.
	snap vclock.Vector
	got  protocol.Gather[vclock.Vector]
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), phase: c.phase, dep: c.dep.Clone(), got: c.got.Clone()}
	if c.snap != nil {
		cp.snap = c.snap.Clone()
	}
	return cp
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
		case *protocol.WriteAck[vclock.Vector]:
			if c.phase == writing && c.Reply(p) {
				c.dep.Merge(p.Stamp)
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
			c.phase = writing
			protocol.SendPrimaryWrite(&c.Core, c.dep.Clone())
		}
		return c.Sent()
	}
	if c.RoundDone() {
		switch c.phase {
		case gsvWait:
			c.snap.Merge(c.dep) // snapshot covers the causal past
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
		case writing:
			c.phase = idle
			c.Finish(now)
		}
	}
	return c.Sent()
}
