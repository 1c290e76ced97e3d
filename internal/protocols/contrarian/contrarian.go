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

	"repro/internal/model"
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

type snapReq struct {
	TID model.TxnID
}

func (p *snapReq) Kind() string     { return "snap-req" }
func (p *snapReq) Txn() model.TxnID { return p.TID }

type snapResp struct {
	TID model.TxnID
	TS  vclock.HLCStamp
}

func (p *snapResp) Kind() string     { return "snap-resp" }
func (p *snapResp) Txn() model.TxnID { return p.TID }

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
		case *snapReq:
			// The server's current time: every version stamped at or
			// below it is already installed (writes are visible on
			// arrival), so reads at this snapshot never block. The clock
			// tracks physical time so snapshots do not lag behind other
			// servers' write activity.
			ts := s.hlc.Now(int64(now))
			s.Send(m.From, &snapResp{TID: p.TID, TS: ts})
		case *readReq:
			resp := &readResp{TID: p.TID}
			for _, obj := range p.Objs {
				if v := s.ShardStore().SnapshotRead(obj, p.Snap); v != nil {
					resp.Vals = append(resp.Vals, readVal{
						Ref:   model.ValueRef{Object: obj, Value: v.Value, Writer: v.Writer},
						Stamp: v.Stamp,
					})
				} else {
					resp.Vals = append(resp.Vals, readVal{Ref: model.ValueRef{Object: obj, Value: model.Bottom}})
				}
			}
			s.Send(m.From, resp)
		case *writeReq:
			s.hlc.Observe(int64(now), p.DepTS)
			ts := s.hlc.Now(int64(now))
			s.ShardStore().Install(&store.Version{Object: p.W.Object, Value: p.W.Value, Writer: p.TID, Stamp: ts, Visible: true})
			s.Send(m.From, &writeResp{TID: p.TID, TS: ts})
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
	readVals map[string]readVal
}

func (c *client) Clone() sim.Process {
	cp := &client{
		Core: c.CloneCore(), phase: c.phase,
		depTS: c.depTS, snap: c.snap, haveSnap: c.haveSnap,
	}
	if c.readVals != nil {
		cp.readVals = make(map[string]readVal, len(c.readVals))
		for k, v := range c.readVals {
			cp.readVals[k] = v
		}
	}
	return cp
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *snapResp:
			if c.phase == snapshotting && c.Reply(p) {
				// Snapshot = minimum of the involved servers' times, but
				// never below the client's causal past (so the snapshot
				// includes everything the client depends on).
				if !c.haveSnap || p.TS.Before(c.snap) {
					c.snap = p.TS
					c.haveSnap = true
				}
			}
		case *readResp:
			if c.phase == reading && c.Reply(p) {
				for _, v := range p.Vals {
					c.readVals[v.Ref.Object] = v
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
			c.phase = snapshotting
			c.haveSnap = false
			c.readVals = make(map[string]readVal)
			for _, sh := range c.Placement().ReadShares(t.ReadSet) {
				c.Send(sh.Server, &snapReq{TID: t.ID})
			}
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
		case snapshotting:
			// The snapshot must cover the client's causal past.
			if c.snap.Before(c.depTS) {
				c.snap = c.depTS
			}
			c.phase = reading
			for _, sh := range c.Placement().ReadShares(t.ReadSet) {
				c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items, Snap: c.snap})
			}
		case reading:
			for _, obj := range t.ReadSet {
				v := c.readVals[obj]
				c.Result().SetValue(obj, v.Ref.Value)
				if c.depTS.Before(v.Stamp) {
					c.depTS = v.Stamp
				}
			}
			c.phase = idle
			c.readVals = nil
			c.Finish(now)
		case writing:
			c.phase = idle
			c.Finish(now)
		}
	}
	return c.Sent()
}
