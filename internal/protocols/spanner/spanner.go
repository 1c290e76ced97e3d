// Package spanner models Spanner (Corbett et al., OSDI 2012), the paper's
// O+V+W corner: one-round, one-value read-only transactions with full
// multi-object write transactions and strict serializability — at the
// price of the non-blocking property. The enabling assumption the paper
// highlights is tightly synchronized physical clocks: TrueTime exposes a
// bounded clock uncertainty ε, commit timestamps respect real time via
// commit-wait, and reads at a chosen timestamp block until the server's
// safe time passes it.
//
// The simulation gives every process a deterministic clock skew in
// [-ε, +ε] over the kernel's virtual time; TrueTime intervals are
// [local-ε, local+ε], so true time is always inside the interval.
package spanner

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Epsilon is the TrueTime uncertainty bound (virtual microseconds). It is
// deliberately larger than the kernel's default link latency so that
// uncertainty waits are visible in the simulation: reads at TT.now().latest
// genuinely block until safe time passes, and commit-wait genuinely delays
// write completion — the costs Table 1 attributes to the R+V+W corner.
const Epsilon int64 = 2500

// skewOf derives a deterministic per-process clock skew in [-ε, +ε].
func skewOf(id sim.ProcessID) int64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int64(h%uint64(2*Epsilon+1)) - Epsilon
}

// Protocol is the spanner factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "spanner" }

// Claims implements protocol.Protocol.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      true,
		OneValue:      true,
		NonBlocking:   false,
		MultiWriteTxn: true,
		Consistency:   "strict-serializable",
	}
}

// NewServer implements protocol.Protocol.
func (*Protocol) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &server{
		ServerCore: protocol.NewServerCore(id, pl),
		skew:       skewOf(id),
	}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p), skew: skewOf(id)}
}

// --- payloads ---

type readReq struct {
	TID  model.TxnID
	Objs []string
	TS   int64 // read timestamp (TT.now().latest at the client)
}

func (p *readReq) Kind() string     { return "read-req" }
func (p *readReq) Txn() model.TxnID { return p.TID }

type readResp struct {
	TID  model.TxnID
	Vals []model.ValueRef
}

func (p *readResp) Kind() string                    { return "read-resp" }
func (p *readResp) Txn() model.TxnID                { return p.TID }
func (p *readResp) CarriedValues() []model.ValueRef { return p.Vals }

type prepareReq struct {
	TID    model.TxnID
	Writes []model.Write
}

func (p *prepareReq) Kind() string     { return "prepare" }
func (p *prepareReq) Txn() model.TxnID { return p.TID }

type prepareAck struct {
	TID model.TxnID
	TS  int64 // prepare timestamp proposal
}

func (p *prepareAck) Kind() string     { return "prepare-ack" }
func (p *prepareAck) Txn() model.TxnID { return p.TID }

type commitReq struct {
	TID model.TxnID
	TS  int64 // commit timestamp
}

func (p *commitReq) Kind() string     { return "commit" }
func (p *commitReq) Txn() model.TxnID { return p.TID }

type commitAck struct {
	TID model.TxnID
}

func (p *commitAck) Kind() string     { return "commit-ack" }
func (p *commitAck) Txn() model.TxnID { return p.TID }

// --- server ---

type deferredRead struct {
	From sim.ProcessID
	Req  *readReq
}

type server struct {
	protocol.ServerCore
	skew    int64
	pending protocol.Pending // prepared-but-uncommitted timestamps
	parked  []deferredRead   // reads waiting for safe time
	lastTS  int64            // monotonicity guard for prepare stamps
}

// Ready keeps the server schedulable while reads are parked: stepping it
// advances virtual time, which advances its safe time.
func (s *server) Ready() bool { return len(s.parked) > 0 }

// WakeAt implements sim.Waker: the earliest instant at which some parked
// read becomes serveable by the passage of time alone (safe time is
// now+skew-ε when nothing is prepared below the read timestamp). Reads
// blocked behind a prepared-but-uncommitted transaction need the commit
// delivery, not time, and do not contribute a wake instant.
func (s *server) WakeAt(now sim.Time) (sim.Time, bool) {
	minPending := s.prepareCap()
	var wake sim.Time
	ok := false
	for _, d := range s.parked {
		if d.Req.TS > minPending {
			continue // a pending prepare caps safe time below this read
		}
		t := sim.Time(d.Req.TS - s.skew + Epsilon)
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
		ServerCore: s.CloneServerCore(), skew: s.skew, lastTS: s.lastTS,
		pending: s.pending.Clone(),
	}
	for _, d := range s.parked {
		cp := *d.Req
		c.parked = append(c.parked, deferredRead{From: d.From, Req: &cp})
	}
	return c
}

// prepareCap is the cap prepared-but-uncommitted transactions put on safe
// time: just below the smallest pending prepare timestamp.
func (s *server) prepareCap() int64 {
	lim := int64(1)<<62 - 1
	if ts, ok := s.pending.Min(); ok {
		lim = min(lim, ts-1)
	}
	return lim
}

// safeTime is the largest timestamp at which reads are complete: nothing
// can commit below it anymore.
func (s *server) safeTime(now sim.Time) int64 {
	return min(int64(now)+s.skew-Epsilon, s.prepareCap())
}

func (s *server) serveRead(from sim.ProcessID, req *readReq) {
	resp := &readResp{TID: req.TID, Vals: make([]model.ValueRef, 0, len(req.Objs))}
	for _, obj := range req.Objs {
		if v := s.ShardStore().SnapshotRead(obj, vclock.HLCStamp{Wall: req.TS}); v != nil {
			resp.Vals = append(resp.Vals, model.ValueRef{Object: obj, Value: v.Value, Writer: v.Writer})
		} else {
			resp.Vals = append(resp.Vals, model.ValueRef{Object: obj, Value: model.Bottom})
		}
	}
	s.Send(from, resp)
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readReq:
			if s.safeTime(now) >= p.TS {
				s.serveRead(m.From, p)
			} else {
				// Blocking: park until safe time catches up.
				s.parked = append(s.parked, deferredRead{From: m.From, Req: p})
			}
		case *prepareReq:
			ts := int64(now) + s.skew + Epsilon
			if ts <= s.lastTS {
				ts = s.lastTS + 1
			}
			s.lastTS = ts
			s.pending.Add(p.TID, ts)
			for _, w := range p.Writes {
				s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID})
			}
			s.Send(m.From, &prepareAck{TID: p.TID, TS: ts})
		case *commitReq:
			s.pending.Remove(p.TID)
			s.ShardStore().CommitAt(p.TID, vclock.HLCStamp{Wall: p.TS})
			if p.TS > s.lastTS {
				s.lastTS = p.TS
			}
			s.Send(m.From, &commitAck{TID: p.TID})
		default:
			panic(fmt.Sprintf("spanner: server %s got %T", s.ID(), m.Payload))
		}
	}
	// Un-park reads whose timestamp is now safe (pending is settled for
	// this step: one safe time serves the whole pass), keeping the rest in
	// place.
	if len(s.parked) > 0 {
		safe, still := s.safeTime(now), s.parked[:0]
		for _, d := range s.parked {
			if safe >= d.Req.TS {
				s.serveRead(d.From, d.Req)
			} else {
				still = append(still, d)
			}
		}
		clear(s.parked[len(still):])
		s.parked = still
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
	commitWait
)

type client struct {
	protocol.Core
	skew     int64
	phase    phase
	commitTS int64
}

func (c *client) Clone() sim.Process {
	return &client{Core: c.CloneCore(), skew: c.skew, phase: c.phase, commitTS: c.commitTS}
}

// Ready: commit-wait needs steps to observe time passing.
func (c *client) Ready() bool {
	return c.Busy() && (!c.Started() || c.phase == commitWait)
}

// WakeAt implements sim.Waker: a fresh transaction is useful immediately;
// commit-wait completes once TT.now().earliest passes the commit
// timestamp, i.e. at commitTS - skew + ε + 1.
func (c *client) WakeAt(now sim.Time) (sim.Time, bool) {
	if !c.Busy() {
		return 0, false
	}
	if !c.Started() {
		return now, true
	}
	if c.phase == commitWait {
		t := sim.Time(c.commitTS - c.skew + Epsilon + 1)
		if t < now {
			t = now
		}
		return t, true
	}
	return 0, false
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readResp:
			if c.phase == reading && c.Reply(p) {
				for _, vr := range p.Vals {
					c.Result().SetValue(vr.Object, vr.Value)
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
		pl := c.Placement()
		if t.IsReadOnly() {
			c.phase = reading
			ts := int64(now) + c.skew + Epsilon // TT.now().latest
			for _, sh := range pl.ReadShares(t.ReadSet) {
				c.Send(sh.Server, &readReq{TID: t.ID, Objs: sh.Items, TS: ts})
			}
		} else {
			c.phase = preparing
			c.commitTS = 0
			for _, sh := range pl.WriteShares(t.Writes) {
				c.Send(sh.Server, &prepareReq{TID: t.ID, Writes: sh.Items})
			}
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		switch c.phase {
		case reading:
			c.phase = idle
			c.Finish(now)
		case preparing:
			c.phase = committing
			for _, srv := range c.Placement().ServersFor(t.WriteSet()) {
				c.Send(srv, &commitReq{TID: t.ID, TS: c.commitTS})
			}
		case committing:
			c.phase = commitWait
		case commitWait:
			// Commit-wait: do not report commit until TT.now().earliest
			// has passed the commit timestamp, guaranteeing real-time
			// order.
			if int64(now)+c.skew-Epsilon > c.commitTS {
				c.phase = idle
				c.Finish(now)
			}
		}
	}
	return c.Sent()
}
