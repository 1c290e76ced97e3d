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

	"repro/internal/model"
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
		known:      make(map[sim.ProcessID]vclock.HLCStamp),
	}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p)}
}

// --- payloads ---

type gstReq struct{ TID model.TxnID }

func (p *gstReq) Kind() string     { return "gst-req" }
func (p *gstReq) Txn() model.TxnID { return p.TID }

type gstResp struct {
	TID model.TxnID
	GST vclock.HLCStamp
}

func (p *gstResp) Kind() string     { return "gst-resp" }
func (p *gstResp) Txn() model.TxnID { return p.TID }

type readReq struct {
	TID  model.TxnID
	Objs []string
	Snap vclock.HLCStamp
}

func (p *readReq) Kind() string     { return "read-req" }
func (p *readReq) Txn() model.TxnID { return p.TID }

type readVal struct {
	Ref   model.ValueRef
	Stamp vclock.HLCStamp
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

type writeReq struct {
	TID   model.TxnID
	W     model.Write
	DepTS vclock.HLCStamp
}

func (p *writeReq) Kind() string     { return "write-req" }
func (p *writeReq) Txn() model.TxnID { return p.TID }

type writeResp struct {
	TID model.TxnID
	TS  vclock.HLCStamp
}

func (p *writeResp) Kind() string     { return "write-ack" }
func (p *writeResp) Txn() model.TxnID { return p.TID }

type gossip struct {
	From  sim.ProcessID
	Clock vclock.HLCStamp
}

func (p *gossip) Kind() string { return "clock-gossip" }

// --- server ---

type parkedRead struct {
	From sim.ProcessID
	Req  *readReq
}

type server struct {
	protocol.ServerCore
	hlc        *vclock.HLC
	known      map[sim.ProcessID]vclock.HLCStamp
	lastGossip vclock.HLCStamp
	parked     []parkedRead
	initSeq    int64
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
		t := sim.Time(d.Req.Snap.Wall + 1)
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
	c := &server{
		ServerCore: s.CloneServerCore(), hlc: s.hlc.Clone(),
		known:      make(map[sim.ProcessID]vclock.HLCStamp, len(s.known)),
		lastGossip: s.lastGossip, initSeq: s.initSeq,
	}
	for k, v := range s.known {
		c.known[k] = v
	}
	for _, d := range s.parked {
		cp := *d.Req
		c.parked = append(c.parked, parkedRead{From: d.From, Req: &cp})
	}
	return c
}

func (s *server) clock() vclock.HLCStamp {
	return vclock.HLCStamp{Wall: s.hlc.Wall, Logical: s.hlc.Logical}
}

func (s *server) gst() vclock.HLCStamp {
	g := s.clock()
	for _, other := range s.Placement().Servers() {
		if other == s.ID() {
			continue
		}
		ks, heard := s.known[other]
		if !heard {
			return vclock.HLCStamp{}
		}
		if ks.Before(g) {
			g = ks
		}
	}
	return g
}

func (s *server) serveRead(from sim.ProcessID, req *readReq) {
	resp := &readResp{TID: req.TID}
	for _, obj := range req.Objs {
		if v := s.ShardStore().SnapshotRead(obj, req.Snap); v != nil {
			resp.Vals = append(resp.Vals, readVal{
				Ref:   model.ValueRef{Object: obj, Value: v.Value, Writer: v.Writer},
				Stamp: v.Stamp,
			})
		} else {
			resp.Vals = append(resp.Vals, readVal{Ref: model.ValueRef{Object: obj, Value: model.Bottom}})
		}
	}
	s.Send(from, resp)
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	// Retry parked reads FIRST (before new input): a read parked in step k
	// is served in step k+1 at the earliest, so the wait is observable as
	// a deferred (blocking) response.
	if len(s.parked) > 0 {
		s.hlc.Now(int64(now))
		var still []parkedRead
		for _, d := range s.parked {
			if d.Req.Snap.Before(s.clock()) || d.Req.Snap.Compare(s.clock()) == 0 {
				s.serveRead(d.From, d.Req)
			} else {
				still = append(still, d)
			}
		}
		s.parked = still
	}
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *gstReq:
			// Clocks track physical time: advance before answering so the
			// GST is not stuck at the last write.
			s.hlc.Now(int64(now))
			s.Send(m.From, &gstResp{TID: p.TID, GST: s.gst()})
		case *readReq:
			if p.Snap.Before(s.clock()) || p.Snap.Compare(s.clock()) == 0 {
				s.serveRead(m.From, p)
			} else {
				s.parked = append(s.parked, parkedRead{From: m.From, Req: p})
			}
		case *writeReq:
			var ts vclock.HLCStamp
			if protocol.IsInitClient(sim.ProcessID(p.TID.Client)) {
				// Initial versions sit at the bottom of the timestamp
				// order so any GST covers them.
				s.initSeq++
				ts = vclock.HLCStamp{Wall: 1, Logical: s.initSeq}
				s.hlc.Observe(int64(now), ts)
			} else {
				s.hlc.Observe(int64(now), p.DepTS)
				ts = s.hlc.Now(int64(now))
			}
			s.ShardStore().Install(&store.Version{Object: p.W.Object, Value: p.W.Value, Writer: p.TID, Stamp: ts, Visible: true})
			s.Send(m.From, &writeResp{TID: p.TID, TS: ts})
		case *gossip:
			if cur, heard := s.known[p.From]; !heard || cur.Before(p.Clock) {
				s.known[p.From] = p.Clock
			}
		default:
			panic(fmt.Sprintf("gentlerain: server %s got %T", s.ID(), m.Payload))
		}
	}
	// Event-driven clock gossip whenever the clock advanced.
	if c := s.clock(); s.lastGossip.Before(c) {
		s.lastGossip = c
		for _, other := range s.Placement().Servers() {
			if other != s.ID() {
				s.Send(other, &gossip{From: s.ID(), Clock: c})
			}
		}
	}
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
	got   map[string]readVal
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), phase: c.phase, depTS: c.depTS, snap: c.snap}
	if c.got != nil {
		cp.got = make(map[string]readVal, len(c.got))
		for k, v := range c.got {
			cp.got[k] = v
		}
	}
	return cp
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *gstResp:
			if c.phase == gstWait && c.Reply(p) {
				c.snap = p.GST
			}
		case *readResp:
			if c.phase == reading && c.Reply(p) {
				for _, v := range p.Vals {
					c.got[v.Ref.Object] = v
				}
			}
		case *writeResp:
			if c.phase == writing && c.Reply(p) {
				if c.depTS.Before(p.TS) {
					c.depTS = p.TS
				}
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if t.IsReadOnly() {
			c.phase = gstWait
			c.got = make(map[string]readVal)
			// GST from the client's designated server (we use the server
			// of the last object in the read set).
			last := t.ReadSet[len(t.ReadSet)-1]
			c.Send(c.Placement().PrimaryOf(last), &gstReq{TID: t.ID})
		} else {
			c.phase = writing
			w := t.Writes[len(t.Writes)-1]
			c.Send(c.Placement().PrimaryOf(w.Object), &writeReq{
				TID: t.ID, W: w, DepTS: c.depTS,
			})
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		switch c.phase {
		case gstWait:
			// The snapshot must cover the client's causal past — this is
			// what makes reads block when the client is ahead of a
			// server's clock.
			if c.snap.Before(c.depTS) {
				c.snap = c.depTS
			}
			c.phase = reading
			for _, sh := range c.Placement().ReadShares(t.ReadSet) {
				c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items, Snap: c.snap})
			}
		case reading:
			for _, obj := range t.ReadSet {
				v := c.got[obj]
				c.Result().SetValue(obj, v.Ref.Value)
				if c.depTS.Before(v.Stamp) {
					c.depTS = v.Stamp
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
	return c.Sent()
}
