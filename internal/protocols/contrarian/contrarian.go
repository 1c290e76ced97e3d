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
	return &server{id: id, pl: pl, st: store.New(pl.HostedBy(id)...), hlc: &vclock.HLC{}}
}

// NewClient implements protocol.Protocol.
func (*Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl)}
}

// --- payloads ---

type snapReq struct {
	TID model.TxnID
}

func (p *snapReq) Kind() string               { return "snap-req" }
func (p *snapReq) Txn() model.TxnID           { return p.TID }
func (p *snapReq) PayloadRole() protocol.Role { return protocol.RoleReadReq }

type snapResp struct {
	TID model.TxnID
	TS  vclock.HLCStamp
}

func (p *snapResp) Kind() string               { return "snap-resp" }
func (p *snapResp) Txn() model.TxnID           { return p.TID }
func (p *snapResp) PayloadRole() protocol.Role { return protocol.RoleReadResp }

type readReq struct {
	TID  model.TxnID
	Objs []string
	Snap vclock.HLCStamp
}

func (p *readReq) Kind() string               { return "read-req" }
func (p *readReq) Txn() model.TxnID           { return p.TID }
func (p *readReq) PayloadRole() protocol.Role { return protocol.RoleReadReq }

type readVal struct {
	Ref   model.ValueRef
	Stamp vclock.HLCStamp
}

type readResp struct {
	TID  model.TxnID
	Vals []readVal
}

func (p *readResp) Kind() string               { return "read-resp" }
func (p *readResp) Txn() model.TxnID           { return p.TID }
func (p *readResp) PayloadRole() protocol.Role { return protocol.RoleReadResp }
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
	TID   model.TxnID
	W     model.Write
	DepTS vclock.HLCStamp
}

func (p *writeReq) Kind() string               { return "write-req" }
func (p *writeReq) Txn() model.TxnID           { return p.TID }
func (p *writeReq) PayloadRole() protocol.Role { return protocol.RoleWriteReq }

type writeResp struct {
	TID model.TxnID
	TS  vclock.HLCStamp
}

func (p *writeResp) Kind() string               { return "write-ack" }
func (p *writeResp) Txn() model.TxnID           { return p.TID }
func (p *writeResp) PayloadRole() protocol.Role { return protocol.RoleWriteResp }

// --- server ---

type server struct {
	id  sim.ProcessID
	pl  *protocol.Placement
	st  *store.Store
	hlc *vclock.HLC
}

func (s *server) ID() sim.ProcessID { return s.id }
func (s *server) Ready() bool       { return false }
func (s *server) Clone() sim.Process {
	return &server{id: s.id, pl: s.pl, st: s.st.Clone(), hlc: s.hlc.Clone()}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	var out []sim.Outbound
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *snapReq:
			// The server's current time: every version stamped at or
			// below it is already installed (writes are visible on
			// arrival), so reads at this snapshot never block. The clock
			// tracks physical time so snapshots do not lag behind other
			// servers' write activity.
			ts := s.hlc.Now(int64(now))
			out = append(out, sim.Outbound{To: m.From, Payload: &snapResp{TID: p.TID, TS: ts}})
		case *readReq:
			resp := &readResp{TID: p.TID}
			for _, obj := range p.Objs {
				if v := s.st.SnapshotRead(obj, p.Snap); v != nil {
					resp.Vals = append(resp.Vals, readVal{
						Ref:   model.ValueRef{Object: obj, Value: v.Value, Writer: v.Writer},
						Stamp: v.Stamp,
					})
				} else {
					resp.Vals = append(resp.Vals, readVal{Ref: model.ValueRef{Object: obj, Value: model.Bottom}})
				}
			}
			out = append(out, sim.Outbound{To: m.From, Payload: resp})
		case *writeReq:
			s.hlc.Observe(int64(now), p.DepTS)
			ts := s.hlc.Now(int64(now))
			s.st.Install(&store.Version{Object: p.W.Object, Value: p.W.Value, Writer: p.TID, Stamp: ts, Visible: true})
			out = append(out, sim.Outbound{To: m.From, Payload: &writeResp{TID: p.TID, TS: ts}})
		default:
			panic(fmt.Sprintf("contrarian: server %s got %T", s.id, m.Payload))
		}
	}
	return out
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
	pending  int
	depTS    vclock.HLCStamp
	snap     vclock.HLCStamp
	haveSnap bool
	readVals map[string]readVal
}

func (c *client) Clone() sim.Process {
	cp := &client{
		Core: c.CloneCore(), phase: c.phase, pending: c.pending,
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

func (c *client) Ready() bool { return c.Busy() && !c.Started() }

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	var out []sim.Outbound
	for _, m := range inbox {
		if !c.Busy() {
			continue
		}
		switch p := m.Payload.(type) {
		case *snapResp:
			if p.TID == c.Current().ID && c.phase == snapshotting {
				// Snapshot = minimum of the involved servers' times, but
				// never below the client's causal past (so the snapshot
				// includes everything the client depends on).
				if !c.haveSnap || p.TS.Before(c.snap) {
					c.snap = p.TS
					c.haveSnap = true
				}
				c.pending--
			}
		case *readResp:
			if p.TID == c.Current().ID && c.phase == reading {
				for _, v := range p.Vals {
					c.readVals[v.Ref.Object] = v
				}
				c.pending--
			}
		case *writeResp:
			if p.TID == c.Current().ID && c.phase == writing {
				if c.depTS.Before(p.TS) {
					c.depTS = p.TS
				}
				c.pending--
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if len(t.WriteSet()) > 1 {
			c.Reject(now, "contrarian: multi-object write transactions unsupported")
			return out
		}
		if len(t.Writes) > 0 && len(t.ReadSet) > 0 {
			c.Reject(now, "contrarian: read-write transactions unsupported")
			return out
		}
		if t.IsReadOnly() {
			c.phase = snapshotting
			c.haveSnap = false
			c.readVals = make(map[string]readVal)
			for _, sh := range c.Placement().ReadShares(t.ReadSet) {
				out = append(out, sim.Outbound{To: sh.Server, Payload: &snapReq{TID: t.ID}})
				c.pending++
			}
			c.SentRound()
		} else {
			c.phase = writing
			w := t.Writes[len(t.Writes)-1]
			out = append(out, sim.Outbound{To: c.Placement().PrimaryOf(w.Object), Payload: &writeReq{
				TID: t.ID, W: w, DepTS: c.depTS,
			}})
			c.pending++
			c.SentRound()
		}
		return out
	}
	if c.Busy() && c.Started() && c.pending == 0 {
		t := c.Current()
		switch c.phase {
		case snapshotting:
			// The snapshot must cover the client's causal past.
			if c.snap.Before(c.depTS) {
				c.snap = c.depTS
			}
			c.phase = reading
			for _, sh := range c.Placement().ReadShares(t.ReadSet) {
				out = append(out, sim.Outbound{To: sh.Server, Payload: &readReq{TID: t.ID, Objs: sh.Items, Snap: c.snap}})
				c.pending++
			}
			c.SentRound()
		case reading:
			for _, obj := range t.ReadSet {
				v := c.readVals[obj]
				c.Result().Values[obj] = v.Ref.Value
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
	return out
}

// ShardStore exposes the durable version store for the reconfiguration
// layer's generic catch-up (protocol.StoreCarrier): a replacement server
// adopts missing versions from live peer replicas before serving.
func (s *server) ShardStore() *store.Store { return s.st }
