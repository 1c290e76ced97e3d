// Package gentlerain models GentleRain (Du et al., SoCC 2014): causally
// consistent single-object writes stamped with (loosely synchronized)
// physical clocks, and read-only transactions that read at the Global
// Stable Time (GST) — the minimum clock across servers. Reads take two
// rounds (GST fetch + snapshot reads) and BLOCK when the snapshot —
// raised by the client's own causal past — is ahead of a server's clock.
// Freshness is sacrificed: a reader with no causal past sees the possibly
// lagging GST snapshot.
package gentlerain

import (
	"fmt"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Protocol is the gentlerain factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "gentlerain" }

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
		hlc:        &vclock.HLC{},
		stab:       protocol.NewStabilizer[vclock.HLCStamp, protocol.HLCs](stableKinds, id, pl),
	}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p)}
}

// --- payloads ---

// stableKinds: servers gossip their clocks, a ROT fetches the GST.
var stableKinds = &protocol.StableKinds{Gossip: "clock-gossip", Req: "gst-req", Resp: "gst-resp"}

// --- server ---

type server struct {
	protocol.ServerCore
	hlc     *vclock.HLC
	stab    protocol.Stabilizer[vclock.HLCStamp, protocol.HLCs]
	parked  protocol.Parked[*protocol.Read[vclock.HLCStamp]]
	initSeq int64
}

func (s *server) Ready() bool { return len(s.parked) > 0 }

// WakeAt implements sim.Waker: a read parked on a snapshot ahead of the
// server clock unparks once the clock's wall time (which tracks virtual
// time) strictly passes the snapshot's wall component — Snap.Wall+1 is
// always enough regardless of the logical tie-break.
func (s *server) WakeAt(now sim.Time) (sim.Time, bool) {
	var wake sim.Time
	ok := false
	for _, d := range s.parked {
		t := sim.Time(d.Req.At.Wall + 1)
		if !ok || t < wake {
			wake, ok = t, true
		}
	}
	if ok && wake < now {
		wake = now
	}
	return wake, ok
}

func (s *server) Clone() sim.Process {
	return &server{
		ServerCore: s.CloneServerCore(), hlc: s.hlc.Clone(),
		stab: s.stab.Clone(), initSeq: s.initSeq, parked: s.parked.Clone(),
	}
}

func (s *server) clock() vclock.HLCStamp {
	return vclock.HLCStamp{Wall: s.hlc.Wall, Logical: s.hlc.Logical}
}

// canServe reports whether the server clock has reached req's snapshot.
func (s *server) canServe(req *protocol.Read[vclock.HLCStamp]) bool {
	return req.At.Before(s.clock()) || req.At.Compare(s.clock()) == 0
}

func (s *server) serveRead(from sim.ProcessID, req *protocol.Read[vclock.HLCStamp]) {
	resp := protocol.ReplyTo[vclock.HLCStamp](req)
	for _, obj := range req.Objs {
		v := s.ShardStore().SnapshotRead(obj, req.At)
		var ts vclock.HLCStamp
		if v != nil {
			ts = v.Stamp
		}
		resp.Add(obj, v, ts)
	}
	s.Send(from, resp)
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	// Retry parked reads FIRST (before new input): a read parked in step k
	// is served in step k+1 at the earliest, so the wait is observable as
	// a deferred (blocking) response.
	if len(s.parked) > 0 {
		s.hlc.Now(int64(now))
		s.parked.Retry(s.canServe, s.serveRead)
	}
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.StableReq:
			// Clocks track physical time: advance before answering so the
			// GST is not stuck at the last write.
			s.hlc.Now(int64(now))
			s.Send(m.From, protocol.Answer(p, s.stab.Min(s.clock())))
		case *protocol.Read[vclock.HLCStamp]:
			s.parked.Offer(m.From, p, s.canServe, s.serveRead)
		case *protocol.Write[vclock.HLCStamp]:
			var ts vclock.HLCStamp
			if protocol.IsInitClient(sim.ProcessID(p.TID.Client)) {
				// Initial versions sit at the bottom of the timestamp
				// order so any GST covers them.
				s.initSeq++
				ts = vclock.HLCStamp{Wall: 1, Logical: s.initSeq}
				s.hlc.Observe(int64(now), ts)
			} else {
				s.hlc.Observe(int64(now), p.Dep)
				ts = s.hlc.Now(int64(now))
			}
			w := p.Writes[0]
			s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Stamp: ts, Visible: true})
			s.Send(m.From, &protocol.WriteAck[vclock.HLCStamp]{Msg: p.Msg, Stamp: ts})
		case *protocol.StableGossip[vclock.HLCStamp]:
			s.stab.Heard(p)
		default:
			panic(fmt.Sprintf("gentlerain: server %s got %T", s.ID(), m.Payload))
		}
	}
	// Event-driven clock gossip whenever the clock advanced.
	s.stab.Publish(&s.ServerCore, s.clock())
	return s.Sent()
}

// --- client ---

type phase uint8

const (
	idle phase = iota
	gstWait
	reading
	writing
)

type client struct {
	protocol.Core
	phase phase
	depTS vclock.HLCStamp
	snap  vclock.HLCStamp
	got   protocol.Gather[vclock.HLCStamp]
}

func (c *client) Clone() sim.Process {
	return &client{Core: c.CloneCore(), phase: c.phase, depTS: c.depTS, snap: c.snap, got: c.got.Clone()}
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.StableResp[vclock.HLCStamp]:
			if c.phase == gstWait && c.Reply(p) {
				c.snap = p.Snap
			}
		case *protocol.ReadReply[vclock.HLCStamp]:
			if c.phase == reading && c.Reply(p) {
				c.got.Put(&c.Core, p, nil)
			}
		case *protocol.WriteAck[vclock.HLCStamp]:
			if c.phase == writing && c.Reply(p) {
				if c.depTS.Before(p.Stamp) {
					c.depTS = p.Stamp
				}
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if t.IsReadOnly() {
			c.phase = gstWait
			c.got.Start(&c.Core)
			// GST from the client's designated server (we use the server
			// of the last object in the read set).
			last := t.ReadSet[len(t.ReadSet)-1]
			c.Send(c.Placement().PrimaryOf(last), stableKinds.Request(t.ID))
		} else {
			c.phase = writing
			protocol.SendPrimaryWrite(&c.Core, c.depTS)
		}
		return c.Sent()
	}
	if c.RoundDone() {
		switch c.phase {
		case gstWait:
			// The snapshot must cover the client's causal past — this is
			// what makes reads block when the client is ahead of a
			// server's clock.
			if c.snap.Before(c.depTS) {
				c.snap = c.depTS
			}
			c.phase = reading
			protocol.SendReads(&c.Core, c.snap)
		case reading:
			for _, v := range c.got.Vals {
				if c.depTS.Before(v.Meta) {
					c.depTS = v.Meta
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
