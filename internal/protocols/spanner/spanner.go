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
		id: id, pl: pl, st: store.New(pl.HostedBy(id)...),
		skew:    skewOf(id),
		pending: make(map[model.TxnID]int64),
	}
}

// NewClient implements protocol.Protocol.
func (*Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl), skew: skewOf(id)}
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
	id      sim.ProcessID
	pl      *protocol.Placement
	st      *store.Store
	skew    int64
	pending map[model.TxnID]int64 // prepared-but-uncommitted timestamps
	parked  []deferredRead        // reads waiting for safe time
	lastTS  int64                 // monotonicity guard for prepare stamps
}

func (s *server) ID() sim.ProcessID { return s.id }

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
		id: s.id, pl: s.pl, st: s.st.Clone(), skew: s.skew, lastTS: s.lastTS,
		pending: make(map[model.TxnID]int64, len(s.pending)),
	}
	for k, v := range s.pending {
		c.pending[k] = v
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
	for _, ts := range s.pending {
		lim = min(lim, ts-1)
	}
	return lim
}

// safeTime is the largest timestamp at which reads are complete: nothing
// can commit below it anymore.
func (s *server) safeTime(now sim.Time) int64 {
	return min(int64(now)+s.skew-Epsilon, s.prepareCap())
}

func (s *server) serveRead(from sim.ProcessID, req *readReq) sim.Outbound {
	resp := &readResp{TID: req.TID}
	for _, obj := range req.Objs {
		if v := s.st.SnapshotRead(obj, vclock.HLCStamp{Wall: req.TS}); v != nil {
			resp.Vals = append(resp.Vals, model.ValueRef{Object: obj, Value: v.Value, Writer: v.Writer})
		} else {
			resp.Vals = append(resp.Vals, model.ValueRef{Object: obj, Value: model.Bottom})
		}
	}
	return sim.Outbound{To: from, Payload: resp}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	var out []sim.Outbound
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *readReq:
			if s.safeTime(now) >= p.TS {
				out = append(out, s.serveRead(m.From, p))
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
			s.pending[p.TID] = ts
			for _, w := range p.Writes {
				s.st.Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID})
			}
			out = append(out, sim.Outbound{To: m.From, Payload: &prepareAck{TID: p.TID, TS: ts}})
		case *commitReq:
			delete(s.pending, p.TID)
			s.st.CommitAt(p.TID, vclock.HLCStamp{Wall: p.TS})
			if p.TS > s.lastTS {
				s.lastTS = p.TS
			}
			out = append(out, sim.Outbound{To: m.From, Payload: &commitAck{TID: p.TID}})
		default:
			panic(fmt.Sprintf("spanner: server %s got %T", s.id, m.Payload))
		}
	}
	// Un-park reads whose timestamp is now safe (pending is settled for
	// this step: one safe time serves the whole pass), keeping the rest in
	// place.
	if len(s.parked) > 0 {
		safe, still := s.safeTime(now), s.parked[:0]
		for _, d := range s.parked {
			if safe >= d.Req.TS {
				out = append(out, s.serveRead(d.From, d.Req))
			} else {
				still = append(still, d)
			}
		}
		clear(s.parked[len(still):])
		s.parked = still
	}
	return out
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
	pending  int
	commitTS int64
	writeTo  []sim.ProcessID
}

func (c *client) Clone() sim.Process {
	cp := &client{Core: c.CloneCore(), skew: c.skew, phase: c.phase, pending: c.pending, commitTS: c.commitTS}
	cp.writeTo = append([]sim.ProcessID(nil), c.writeTo...)
	return cp
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
	var out []sim.Outbound
	for _, m := range inbox {
		if !c.Busy() {
			continue
		}
		switch p := m.Payload.(type) {
		case *readResp:
			if p.TID == c.Current().ID && c.phase == reading {
				for _, vr := range p.Vals {
					c.Result().Values[vr.Object] = vr.Value
				}
				c.pending--
			}
		case *prepareAck:
			if p.TID == c.Current().ID && c.phase == preparing {
				if p.TS > c.commitTS {
					c.commitTS = p.TS
				}
				c.pending--
			}
		case *commitAck:
			if p.TID == c.Current().ID && c.phase == committing {
				c.pending--
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		pl := c.Placement()
		if len(t.Writes) > 0 && len(t.ReadSet) > 0 {
			c.Reject(now, "spanner: read-write transactions unsupported in this model")
			return out
		}
		if t.IsReadOnly() {
			c.phase = reading
			ts := int64(now) + c.skew + Epsilon // TT.now().latest
			for _, sh := range pl.ReadShares(t.ReadSet) {
				out = append(out, sim.Outbound{To: sh.Server, Payload: &readReq{TID: t.ID, Objs: sh.Items, TS: ts}})
				c.pending++
			}
			c.SentRound()
		} else {
			c.phase = preparing
			c.commitTS = 0
			c.writeTo = nil
			for _, sh := range pl.WriteShares(t.Writes) {
				c.writeTo = append(c.writeTo, sh.Server)
				out = append(out, sim.Outbound{To: sh.Server, Payload: &prepareReq{TID: t.ID, Writes: sh.Items}})
				c.pending++
			}
			c.SentRound()
		}
		return out
	}
	if c.Busy() && c.Started() && c.pending == 0 {
		switch c.phase {
		case reading:
			c.phase = idle
			c.Finish(now)
		case preparing:
			c.phase = committing
			for _, srv := range c.writeTo {
				out = append(out, sim.Outbound{To: srv, Payload: &commitReq{TID: c.Current().ID, TS: c.commitTS}})
				c.pending++
			}
			c.SentRound()
		case committing:
			c.phase = commitWait
		case commitWait:
			// Commit-wait: do not report commit until TT.now().earliest
			// has passed the commit timestamp, guaranteeing real-time
			// order.
			if int64(now)+c.skew-Epsilon > c.commitTS {
				c.phase = idle
				c.writeTo = nil
				c.Finish(now)
			}
		}
	}
	return out
}

// ShardStore exposes the durable version store for the reconfiguration
// layer's generic catch-up (protocol.StoreCarrier): a replacement server
// adopts missing versions from live peer replicas before serving.
func (s *server) ShardStore() *store.Store { return s.st }
