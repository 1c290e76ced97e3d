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
		stab:       protocol.NewStabilizer[vclock.HLCStamp, protocol.HLCs](stableKinds, id, pl),
	}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p), cache: make(map[string]cached)}
}

// --- payloads ---

// stableKinds: servers gossip their local stable time, a ROT fetches the
// cutoff.
var stableKinds = &protocol.StableKinds{Gossip: "stable-gossip", Req: "stable-req", Resp: "stable-resp"}

// --- server ---

type server struct {
	protocol.ServerCore
	hlc *vclock.HLC
	// pending holds the prepare stamps, which the hybrid clock only
	// grows: initial versions all prepare at the zero stamp, but each
	// commits before the next is written.
	pending protocol.Pending[vclock.HLCStamp, protocol.HLCs]
	stab    protocol.Stabilizer[vclock.HLCStamp, protocol.HLCs]
}

func (s *server) Clone() sim.Process {
	return &server{
		ServerCore: s.CloneServerCore(), hlc: s.hlc.Clone(),
		pending: s.pending.Clone(), stab: s.stab.Clone(),
	}
}

// localStable returns the largest timestamp with no pending prepare at or
// below it.
func (s *server) localStable() vclock.HLCStamp {
	st := vclock.HLCStamp{Wall: s.hlc.Wall, Logical: s.hlc.Logical}
	if ts, ok := s.pending.Min(); ok {
		if below := (vclock.HLCStamp{Wall: ts.Wall, Logical: ts.Logical - 1}); below.Before(st) {
			st = below
		}
	}
	return st
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.StableReq:
			// The local clock tracks physical time (as in Wren); advance
			// it so the stable time is not stuck at the last write. The
			// cutoff is the minimum stable time across all servers as
			// known here.
			s.hlc.Now(int64(now))
			s.Send(m.From, protocol.Answer(p, s.stab.Min(s.localStable())))
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
		case *protocol.Prepare[vclock.HLCStamp]:
			// Initial versions sit at the bottom of the timestamp order —
			// the zero stamp — so every cutoff covers them: the cutoff is a
			// minimum over servers, and one that has been idle since its
			// own init write drags it below the later servers' init stamps.
			var ts vclock.HLCStamp
			if !protocol.IsInitClient(sim.ProcessID(p.TID.Client)) {
				s.hlc.Observe(int64(now), p.Dep)
				ts = s.hlc.Now(int64(now))
			}
			s.pending.Add(p.TID, ts)
			for _, w := range p.Writes {
				s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Stamp: ts})
			}
			s.Send(m.From, &protocol.Prepared[vclock.HLCStamp]{Msg: p.Msg, Stamp: ts})
		case *protocol.Commit[vclock.HLCStamp]:
			s.hlc.Observe(int64(now), p.Stamp)
			s.pending.Remove(p.TID)
			s.ShardStore().CommitAt(p.TID, p.Stamp)
			s.Send(m.From, &protocol.Committed{Msg: p.Msg})
		case *protocol.StableGossip[vclock.HLCStamp]:
			s.stab.Heard(p)
		default:
			panic(fmt.Sprintf("wren: server %s got %T", s.ID(), m.Payload))
		}
	}
	// Event-driven stabilization: broadcast the local stable time whenever
	// it advances.
	s.stab.Publish(&s.ServerCore, s.localStable())
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
	phase   phase
	depTS   vclock.HLCStamp // max timestamp of observed values/commits
	snap    vclock.HLCStamp
	maxPrep vclock.HLCStamp
	cache   map[string]cached // own committed writes (read-your-writes)
	got     protocol.Gather[vclock.HLCStamp]
}

func (c *client) Clone() sim.Process {
	cp := &client{
		Core: c.CloneCore(), phase: c.phase,
		depTS: c.depTS, snap: c.snap, maxPrep: c.maxPrep,
		cache: make(map[string]cached, len(c.cache)), got: c.got.Clone(),
	}
	for k, v := range c.cache {
		cp.cache[k] = v
	}
	return cp
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.StableResp[vclock.HLCStamp]:
			if c.phase == cutoffWait && c.Reply(p) {
				c.snap = p.Snap
			}
		case *protocol.ReadReply[vclock.HLCStamp]:
			if c.phase == reading && c.Reply(p) {
				c.got.Put(&c.Core, p, nil)
			}
		case *protocol.Prepared[vclock.HLCStamp]:
			if c.phase == preparing && c.Reply(p) {
				if c.maxPrep.Before(p.Stamp) {
					c.maxPrep = p.Stamp
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
			// Round 1: fetch the cutoff from one server (any will do; we
			// use the primary of the first object).
			c.phase = cutoffWait
			c.got.Start(&c.Core)
			first := c.Placement().PrimaryOf(t.ReadSet[0])
			c.Send(first, stableKinds.Request(t.ID))
		} else {
			c.phase = preparing
			c.maxPrep = vclock.HLCStamp{}
			protocol.SendPrepares(&c.Core, c.depTS)
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		switch c.phase {
		case cutoffWait:
			// Round 2: snapshot reads at the cutoff.
			c.phase = reading
			protocol.SendReads(&c.Core, c.snap)
		case reading:
			for i, obj := range t.ReadSet {
				v := &c.got.Vals[i]
				// Read-your-writes: a cached own write beyond the snapshot
				// wins.
				if own, cachedOK := c.cache[obj]; cachedOK && v.Meta.Before(own.TS) {
					v.Ref.Value = own.Val
				}
				if c.depTS.Before(v.Meta) {
					c.depTS = v.Meta
				}
			}
			c.got.Fill(&c.Core)
			c.phase = idle
			c.Finish(now)
		case preparing:
			c.phase = committing
			protocol.SendCommits(&c.Core, c.maxPrep)
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
