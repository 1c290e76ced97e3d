// Package contrarian models Contrarian (Didona et al., VLDB 2018): causally
// consistent read-only transactions that are non-blocking and one-value but
// take two rounds — the first round negotiates a safe snapshot timestamp
// with the involved servers (metadata only), the second round reads at that
// snapshot. Write transactions are single-object (no W property).
//
// Writes are stamped with hybrid logical clocks and visible immediately;
// because the snapshot is the minimum of the involved servers' current
// times, every read at the snapshot is below each server's clock and can be
// answered without blocking.
package contrarian

import (
	"fmt"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Protocol is the contrarian factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "contrarian" }

// Claims implements protocol.Protocol.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      false,
		OneValue:      true,
		NonBlocking:   true,
		MultiWriteTxn: false,
		Consistency:   "causal",
	}
}

// NewServer implements protocol.Protocol.
func (*Protocol) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &server{ServerCore: protocol.NewServerCore(id, pl), hlc: &vclock.HLC{}}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p)}
}

// --- payloads ---

// snapKinds: a ROT asks each server it reads from for its clock.
var snapKinds = &protocol.StableKinds{Req: "snap-req", Resp: "snap-resp"}

// --- server ---

type server struct {
	protocol.ServerCore
	hlc *vclock.HLC
}

func (s *server) Clone() sim.Process {
	return &server{ServerCore: s.CloneServerCore(), hlc: s.hlc.Clone()}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.StableReq:
			// The server's current time: every version stamped at or
			// below it is already installed (writes are visible on
			// arrival), so reads at this snapshot never block. The clock
			// tracks physical time so snapshots do not lag behind other
			// servers' write activity.
			s.Send(m.From, protocol.Answer(p, s.hlc.Now(int64(now))))
		case *protocol.Read[vclock.HLCStamp]:
			resp := protocol.ReplyTo[vclock.HLCStamp](p)
			for _, obj := range p.Objs {
				v := s.ShardStore().SnapshotRead(obj, p.At)
				var ts vclock.HLCStamp
				if v != nil {
					ts = v.Stamp
				}
				resp.Add(obj, v, ts)
			}
			s.Send(m.From, resp)
		case *protocol.Write[vclock.HLCStamp]:
			s.hlc.Observe(int64(now), p.Dep)
			ts := s.hlc.Now(int64(now))
			w := p.Writes[0]
			s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Stamp: ts, Visible: true})
			s.Send(m.From, &protocol.WriteAck[vclock.HLCStamp]{Msg: p.Msg, Stamp: ts})
		default:
			panic(fmt.Sprintf("contrarian: server %s got %T", s.ID(), m.Payload))
		}
	}
	return s.Sent()
}

// --- client ---

type phase uint8

const (
	idle phase = iota
	snapshotting
	reading
	writing
)

type client struct {
	protocol.Core
	phase    phase
	depTS    vclock.HLCStamp
	snap     vclock.HLCStamp
	haveSnap bool
	got      protocol.Gather[vclock.HLCStamp]
}

func (c *client) Clone() sim.Process {
	return &client{
		Core: c.CloneCore(), phase: c.phase,
		depTS: c.depTS, snap: c.snap, haveSnap: c.haveSnap, got: c.got.Clone(),
	}
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.StableResp[vclock.HLCStamp]:
			if c.phase == snapshotting && c.Reply(p) {
				// Snapshot = minimum of the involved servers' times, but
				// never below the client's causal past (so the snapshot
				// includes everything the client depends on).
				if !c.haveSnap || p.Snap.Before(c.snap) {
					c.snap = p.Snap
					c.haveSnap = true
				}
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
			c.phase = snapshotting
			c.haveSnap = false
			c.got.Start(&c.Core)
			for _, sh := range c.Placement().ReadShares(nil, t.ReadSet) {
				c.Send(sh.Server, snapKinds.Request(t.ID))
			}
		} else {
			c.phase = writing
			protocol.SendPrimaryWrite(&c.Core, c.depTS)
		}
		return c.Sent()
	}
	if c.RoundDone() {
		switch c.phase {
		case snapshotting:
			// The snapshot must cover the client's causal past.
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
