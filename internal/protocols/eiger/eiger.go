// Package eiger models Eiger (Lloyd et al., NSDI 2013): causally
// consistent multi-object write transactions via two-phase commit with
// commit-invisible pending versions (2PC-CI), plus non-blocking read-only
// transactions that take up to three rounds: round 1 fetches the latest
// visible values, pending markers and each server's clock; the client
// computes the effective time (the newest fetched commit timestamp) and,
// unless every server certified its answer at that time, re-requests the
// snapshot AT the effective time — servers observe it into their clocks
// and serve the read-at-time definitively once nothing prepared at or
// below it is still pending (the client re-polls, bounded, until the
// pending commit lands). Logical Lamport timestamps order commits.
package eiger

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vclock"
)

// MaxReadRounds bounds ROT retries. Real Eiger resolves a pending
// transaction in at most 3 rounds by asking the pending transaction's
// coordinator for its commit decision; our model has no server-side
// coordinator, so the client simply re-polls until the commit lands
// (guaranteed in every legal execution, where all messages are delivered).
// The bound is a safety valve against pathological schedules.
const MaxReadRounds = 64

// tieBreak derives a deterministic per-transaction logical component
// (FNV-1a of the transaction ID) for the commit stamp. Two transactions
// can commit at the same Lamport wall time — ticked by different servers
// — and the store's stamp-tie fallback is per-server install order, which
// is NOT uniform across servers: a reader could then see the tie resolve
// differently at each primary and observe half of each transaction. Real
// Eiger orders commits by (timestamp, coordinator id); the logical field
// plays that role here.
func tieBreak(tid model.TxnID) int64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(tid.String()) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int64(h & (1<<62 - 1))
}

// Protocol is the eiger factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "eiger" }

// Claims implements protocol.Protocol.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      false, // ≤ 3
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
		clock:      &vclock.Lamport{},
	}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p)}
}

// --- payloads ---

type readReq struct {
	TID  model.TxnID
	Objs []string
	// At > 0 requests values at the given effective time (retry rounds).
	At int64
}

func (p *readReq) Kind() string     { return "read-req" }
func (p *readReq) Txn() model.TxnID { return p.TID }

type readVal struct {
	Ref model.ValueRef
	TS  int64
	// PendingBelow is the smallest pending-prepare timestamp on the
	// object's server (0 = none): a value with TS < effective time while
	// PendingBelow ≤ effective time may be superseded.
	PendingBelow int64
	// SafeT is the server's Lamport clock when it answered. Any write
	// transaction that prepares at the server after this response will
	// commit with a timestamp strictly above SafeT (its prepare ack ticks
	// past the clock and the commit timestamp is the max over acks), so a
	// value accompanied by SafeT ≥ eff and no pending prepare at or below
	// eff is provably the value at effective time eff.
	SafeT int64
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
	DepTS  int64
}

func (p *prepareReq) Kind() string     { return "prepare" }
func (p *prepareReq) Txn() model.TxnID { return p.TID }

type prepareAck struct {
	TID model.TxnID
	TS  int64
}

func (p *prepareAck) Kind() string     { return "prepare-ack" }
func (p *prepareAck) Txn() model.TxnID { return p.TID }

type commitReq struct {
	TID model.TxnID
	TS  int64
}

func (p *commitReq) Kind() string     { return "commit" }
func (p *commitReq) Txn() model.TxnID { return p.TID }

type commitAck struct {
	TID model.TxnID
	TS  int64
}

func (p *commitAck) Kind() string     { return "commit-ack" }
func (p *commitAck) Txn() model.TxnID { return p.TID }

// --- server ---

type server struct {
	protocol.ServerCore
	clock   *vclock.Lamport
	pending protocol.Pending
}

func (s *server) Clone() sim.Process {
	return &server{ServerCore: s.CloneServerCore(), clock: s.clock.Clone(),
		pending: s.pending.Clone()}
}

// minPending is the smallest pending prepare stamp, 0 if none.
func (s *server) minPending() int64 {
	ts, _ := s.pending.Min()
	return ts
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readReq:
			// Second-round read-at-time: the client requests the snapshot at
			// its computed effective time. Observing At pushes the clock past
			// it, so after this response every future prepare at this server
			// acks above At — the answer is definitive unless an already-
			// pending prepare at or below At could still commit under it
			// (reported via PendingBelow; the client re-polls until it
			// lands).
			at := int64(1 << 62)
			if p.At > 0 {
				s.clock.Observe(p.At)
				at = p.At
			}
			resp := &readResp{TID: p.TID}
			for _, obj := range p.Objs {
				// Logical ceiling: a read at eff includes every commit whose
				// wall time is exactly eff, whatever its tie-break.
				v := s.ShardStore().SnapshotRead(obj, vclock.HLCStamp{Wall: at, Logical: 1 << 62})
				if v == nil {
					resp.Vals = append(resp.Vals, readVal{
						Ref:          model.ValueRef{Object: obj, Value: model.Bottom},
						PendingBelow: s.minPending(),
						SafeT:        s.clock.T,
					})
					continue
				}
				resp.Vals = append(resp.Vals, readVal{
					Ref:          model.ValueRef{Object: obj, Value: v.Value, Writer: v.Writer},
					TS:           v.Stamp.Wall,
					PendingBelow: s.minPending(),
					SafeT:        s.clock.T,
				})
			}
			s.Send(m.From, resp)
		case *prepareReq:
			s.clock.Observe(p.DepTS)
			ts := s.clock.Tick()
			s.pending.Add(p.TID, ts)
			for _, w := range p.Writes {
				s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID,
					Stamp: vclock.HLCStamp{Wall: ts}})
			}
			s.Send(m.From, &prepareAck{TID: p.TID, TS: ts})
		case *commitReq:
			s.clock.Observe(p.TS)
			s.pending.Remove(p.TID)
			s.ShardStore().CommitAt(p.TID, vclock.HLCStamp{Wall: p.TS, Logical: tieBreak(p.TID)})
			s.Send(m.From, &commitAck{TID: p.TID, TS: p.TS})
		default:
			panic(fmt.Sprintf("eiger: server %s got %T", s.ID(), m.Payload))
		}
	}
	return s.Sent()
}

// --- client ---

type phase uint8

const (
	idle phase = iota
	reading
	preparing
	committing
)

type client struct {
	protocol.Core
	phase    phase
	depTS    int64
	commitTS int64
	got      map[string]readVal
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), phase: c.phase,
		depTS: c.depTS, commitTS: c.commitTS}
	if c.got != nil {
		cp.got = make(map[string]readVal, len(c.got))
		for k, v := range c.got {
			cp.got[k] = v
		}
	}
	return cp
}

func (c *client) sendReads(at int64) {
	t := c.Current()
	for _, sh := range c.Placement().ReadShares(t.ReadSet) {
		c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items, At: at})
	}
}

// effTime is the transaction's effective time: the newest commit
// timestamp among the fetched values (Eiger's "effective time" of the
// read-only transaction).
func (c *client) effTime() int64 {
	eff := int64(0)
	for _, v := range c.got {
		if v.TS > eff {
			eff = v.TS
		}
	}
	return eff
}

// settled reports whether every fetched value is provably the value at
// the effective time: the answering server's clock had passed eff (so no
// later-prepared transaction can commit at or below it) and no prepare
// pending at or below eff could still commit underneath. Both checks are
// required even when a value's own timestamp equals eff — two concurrent
// transactions can tie at eff, and the tie loser may still be pending at
// one server while the winner is visible at another.
func (c *client) settled(eff int64) bool {
	for _, v := range c.got {
		if v.SafeT < eff {
			return false
		}
		if v.PendingBelow > 0 && v.PendingBelow <= eff {
			return false
		}
	}
	return true
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readResp:
			if c.phase == reading && c.Reply(p) {
				for _, v := range p.Vals {
					if cur, fetched := c.got[v.Ref.Object]; !fetched || v.TS >= cur.TS {
						c.got[v.Ref.Object] = v
					}
				}
			}
		case *prepareAck:
			if c.phase == preparing && c.Reply(p) {
				if p.TS > c.commitTS {
					c.commitTS = p.TS
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
			c.phase = reading
			c.got = make(map[string]readVal)
			c.sendReads(0)
		} else {
			c.phase = preparing
			c.commitTS = 0
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
		case reading:
			if eff := c.effTime(); eff > 0 && !c.settled(eff) && c.Rounds() < MaxReadRounds {
				// Second round, read-at-time: re-request the snapshot at the
				// effective time. The servers observe eff into their clocks,
				// so the retry either settles every object at eff or keeps
				// re-polling while a prepare at or below eff is pending.
				c.sendReads(eff)
				return c.Sent()
			}
			for _, obj := range t.ReadSet {
				v := c.got[obj]
				c.Result().SetValue(obj, v.Ref.Value)
				if v.TS > c.depTS {
					c.depTS = v.TS
				}
			}
			c.phase = idle
			c.got = nil
			c.Finish(now)
		case preparing:
			c.phase = committing
			for _, srv := range c.Placement().ServersFor(t.WriteSet()) {
				c.Send(srv, &commitReq{TID: t.ID, TS: c.commitTS})
			}
		case committing:
			if c.commitTS > c.depTS {
				c.depTS = c.commitTS
			}
			c.phase = idle
			c.Finish(now)
		}
	}
	return c.Sent()
}
