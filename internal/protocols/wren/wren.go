// Package wren models Wren (Spirovska et al., DSN 2018), the paper's
// N+V+W corner: non-blocking, one-value read-only transactions that
// coexist with multi-object write transactions and causal consistency —
// at the price of the one-round property (every ROT pays an extra round
// to learn the stable cutoff timestamp).
//
// Mechanism: write transactions run two-phase commit with hybrid logical
// clock timestamps; a version is pending between prepare and commit.
// Every server maintains a local stable timestamp (no pending transaction
// at or below it) and gossips it; the cutoff — the minimum across servers
// — identifies a snapshot that read-only transactions can read without
// blocking. Round 1 of a ROT fetches the cutoff from one server (a pure
// metadata exchange, allowed by the one-value property); round 2 reads
// every object at that snapshot. Clients additionally cache their own
// writes so they read their own writes even when the cutoff lags.
package wren

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Protocol is the wren factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "wren" }

// Claims implements protocol.Protocol.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      false, // the extra cutoff round
		OneValue:      true,
		NonBlocking:   true,
		MultiWriteTxn: true,
		Consistency:   "causal",
	}
}

// NewServer implements protocol.Protocol.
func (*Protocol) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &server{
		ServerCore: protocol.NewServerCore(id, pl),
		hlc:        &vclock.HLC{},
		pending:    make(map[model.TxnID]vclock.HLCStamp),
		known:      make(map[sim.ProcessID]vclock.HLCStamp),
	}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p), cache: make(map[string]cached)}
}

// --- payloads ---

type stableReq struct {
	TID model.TxnID
}

func (p *stableReq) Kind() string     { return "stable-req" }
func (p *stableReq) Txn() model.TxnID { return p.TID }

type stableResp struct {
	TID    model.TxnID
	Cutoff vclock.HLCStamp
}

func (p *stableResp) Kind() string     { return "stable-resp" }
func (p *stableResp) Txn() model.TxnID { return p.TID }

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

type prepareReq struct {
	TID    model.TxnID
	Writes []model.Write
	DepTS  vclock.HLCStamp
}

func (p *prepareReq) Kind() string     { return "prepare" }
func (p *prepareReq) Txn() model.TxnID { return p.TID }

type prepareAck struct {
	TID model.TxnID
	TS  vclock.HLCStamp
}

func (p *prepareAck) Kind() string     { return "prepare-ack" }
func (p *prepareAck) Txn() model.TxnID { return p.TID }

type commitReq struct {
	TID model.TxnID
	TS  vclock.HLCStamp
}

func (p *commitReq) Kind() string     { return "commit" }
func (p *commitReq) Txn() model.TxnID { return p.TID }

type commitAck struct {
	TID model.TxnID
	TS  vclock.HLCStamp
}

func (p *commitAck) Kind() string     { return "commit-ack" }
func (p *commitAck) Txn() model.TxnID { return p.TID }

type gossip struct {
	From   sim.ProcessID
	Stable vclock.HLCStamp
}

func (p *gossip) Kind() string { return "stable-gossip" }

// --- server ---

type server struct {
	protocol.ServerCore
	hlc     *vclock.HLC
	pending map[model.TxnID]vclock.HLCStamp
	known   map[sim.ProcessID]vclock.HLCStamp
	// lastGossip is the last stable value broadcast, to gossip only on
	// change (keeps the event-driven gossip from looping forever).
	lastGossip vclock.HLCStamp
}

func (s *server) Clone() sim.Process {
	c := &server{
		ServerCore: s.CloneServerCore(), hlc: s.hlc.Clone(),
		pending:    make(map[model.TxnID]vclock.HLCStamp, len(s.pending)),
		known:      make(map[sim.ProcessID]vclock.HLCStamp, len(s.known)),
		lastGossip: s.lastGossip,
	}
	for k, v := range s.pending {
		c.pending[k] = v
	}
	for k, v := range s.known {
		c.known[k] = v
	}
	return c
}

// localStable returns the largest timestamp with no pending prepare at or
// below it.
func (s *server) localStable() vclock.HLCStamp {
	st := vclock.HLCStamp{Wall: s.hlc.Wall, Logical: s.hlc.Logical}
	for _, ts := range s.pending {
		below := vclock.HLCStamp{Wall: ts.Wall, Logical: ts.Logical - 1}
		if below.Before(st) {
			st = below
		}
	}
	return st
}

// cutoff is the minimum stable timestamp across all servers as known here.
func (s *server) cutoff() vclock.HLCStamp {
	cut := s.localStable()
	for _, other := range s.Placement().Servers() {
		if other == s.ID() {
			continue
		}
		ks, heard := s.known[other]
		if !heard {
			return vclock.HLCStamp{} // no information: snapshot at zero
		}
		if ks.Before(cut) {
			cut = ks
		}
	}
	return cut
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *stableReq:
			// The local clock tracks physical time (as in Wren); advance
			// it so the stable time is not stuck at the last write.
			s.hlc.Now(int64(now))
			s.Send(m.From, &stableResp{TID: p.TID, Cutoff: s.cutoff()})
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
		case *prepareReq:
			// Initial versions sit at the bottom of the timestamp order —
			// the zero stamp — so every cutoff covers them: the cutoff is a
			// minimum over servers, and one that has been idle since its
			// own init write drags it below the later servers' init stamps.
			var ts vclock.HLCStamp
			if !protocol.IsInitClient(sim.ProcessID(p.TID.Client)) {
				s.hlc.Observe(int64(now), p.DepTS)
				ts = s.hlc.Now(int64(now))
			}
			s.pending[p.TID] = ts
			for _, w := range p.Writes {
				s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Stamp: ts})
			}
			s.Send(m.From, &prepareAck{TID: p.TID, TS: ts})
		case *commitReq:
			s.hlc.Observe(int64(now), p.TS)
			delete(s.pending, p.TID)
			s.ShardStore().CommitAt(p.TID, p.TS)
			s.Send(m.From, &commitAck{TID: p.TID, TS: p.TS})
		case *gossip:
			if cur, heard := s.known[p.From]; !heard || cur.Before(p.Stable) {
				s.known[p.From] = p.Stable
			}
		default:
			panic(fmt.Sprintf("wren: server %s got %T", s.ID(), m.Payload))
		}
	}
	// Event-driven stabilization: broadcast the local stable time whenever
	// it advances.
	if ls := s.localStable(); s.lastGossip.Before(ls) {
		s.lastGossip = ls
		for _, other := range s.Placement().Servers() {
			if other != s.ID() {
				s.Send(other, &gossip{From: s.ID(), Stable: ls})
			}
		}
	}
	return s.Sent()
}

// --- client ---

type cached struct {
	Val model.Value
	TID model.TxnID
	TS  vclock.HLCStamp
}

type phase uint8

const (
	idle phase = iota
	cutoffWait
	reading
	preparing
	committing
)

type client struct {
	protocol.Core
	phase    phase
	depTS    vclock.HLCStamp // max timestamp of observed values/commits
	snap     vclock.HLCStamp
	maxPrep  vclock.HLCStamp
	cache    map[string]cached // own committed writes (read-your-writes)
	readVals map[string]readVal
}

func (c *client) Clone() sim.Process {
	cp := &client{
		Core: c.CloneCore(), phase: c.phase,
		depTS: c.depTS, snap: c.snap, maxPrep: c.maxPrep,
		cache: make(map[string]cached, len(c.cache)),
	}
	for k, v := range c.cache {
		cp.cache[k] = v
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
		case *stableResp:
			if c.phase == cutoffWait && c.Reply(p) {
				c.snap = p.Cutoff
			}
		case *readResp:
			if c.phase == reading && c.Reply(p) {
				for _, v := range p.Vals {
					c.readVals[v.Ref.Object] = v
				}
			}
		case *prepareAck:
			if c.phase == preparing && c.Reply(p) {
				if c.maxPrep.Before(p.TS) {
					c.maxPrep = p.TS
				}
			}
		case *commitAck:
			if c.phase == committing {
				c.Reply(p)
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if t.IsReadOnly() {
			// Round 1: fetch the cutoff from one server (any will do; we
			// use the primary of the first object).
			c.phase = cutoffWait
			c.readVals = make(map[string]readVal)
			first := c.Placement().PrimaryOf(t.ReadSet[0])
			c.Send(first, &stableReq{TID: t.ID})
		} else {
			c.phase = preparing
			c.maxPrep = vclock.HLCStamp{}
			for _, sh := range c.Placement().WriteShares(t.Writes) {
				c.Send(sh.Server, &prepareReq{
					TID: t.ID, Writes: sh.Items, DepTS: c.depTS,
				})
			}
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		switch c.phase {
		case cutoffWait:
			// Round 2: snapshot reads at the cutoff.
			c.phase = reading
			for _, sh := range c.Placement().ReadShares(t.ReadSet) {
				c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items, Snap: c.snap})
			}
		case reading:
			for _, obj := range t.ReadSet {
				v := c.readVals[obj]
				val, ts := v.Ref.Value, v.Stamp
				// Read-your-writes: a cached own write beyond the snapshot
				// wins.
				if own, cachedOK := c.cache[obj]; cachedOK && ts.Before(own.TS) {
					val = own.Val
				}
				c.Result().SetValue(obj, val)
				if c.depTS.Before(ts) {
					c.depTS = ts
				}
			}
			c.phase = idle
			c.readVals = nil
			c.Finish(now)
		case preparing:
			c.phase = committing
			for _, srv := range c.Placement().ServersFor(t.WriteSet()) {
				c.Send(srv, &commitReq{TID: t.ID, TS: c.maxPrep})
			}
		case committing:
			for _, w := range t.Writes {
				c.cache[w.Object] = cached{Val: w.Value, TID: t.ID, TS: c.maxPrep}
			}
			if c.depTS.Before(c.maxPrep) {
				c.depTS = c.maxPrep
			}
			c.phase = idle
			c.Finish(now)
		}
	}
	return c.Sent()
}
