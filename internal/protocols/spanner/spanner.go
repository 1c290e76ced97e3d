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

// --- server ---

type server struct {
	protocol.ServerCore
	skew    int64
	pending protocol.Pending[int64, protocol.Counters] // prepared-but-uncommitted timestamps
	parked  protocol.Parked[*protocol.Read[int64]]     // reads waiting for safe time
	lastTS  int64                                      // monotonicity guard for prepare stamps
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
		if d.Req.At > minPending {
			continue // a pending prepare caps safe time below this read
		}
		t := sim.Time(d.Req.At - s.skew + Epsilon)
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
		ServerCore: s.CloneServerCore(), skew: s.skew, lastTS: s.lastTS,
		pending: s.pending.Clone(), parked: s.parked.Clone(),
	}
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

func (s *server) serveRead(from sim.ProcessID, req *protocol.Read[int64]) {
	resp := protocol.ReplyTo[struct{}](req)
	for _, obj := range req.Objs {
		resp.Add(obj, s.ShardStore().SnapshotRead(obj, vclock.HLCStamp{Wall: req.At}), struct{}{})
	}
	s.Send(from, resp)
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.Read[int64]:
			// Blocking: park until safe time catches up. An earlier
			// prepare or commit of this inbox moves safe time, so each
			// read reads it afresh.
			safe := s.safeTime(now)
			s.parked.Offer(m.From, p, func(r *protocol.Read[int64]) bool { return safe >= r.At }, s.serveRead)
		case *protocol.Prepare[struct{}]:
			ts := int64(now) + s.skew + Epsilon // prepare timestamp proposal
			if ts <= s.lastTS {
				ts = s.lastTS + 1
			}
			s.lastTS = ts
			s.pending.Add(p.TID, ts)
			for _, w := range p.Writes {
				s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID})
			}
			s.Send(m.From, &protocol.Prepared[int64]{Msg: p.Msg, Stamp: ts})
		case *protocol.Commit[int64]:
			s.pending.Remove(p.TID)
			s.ShardStore().CommitAt(p.TID, vclock.HLCStamp{Wall: p.Stamp})
			if p.Stamp > s.lastTS {
				s.lastTS = p.Stamp
			}
			s.Send(m.From, &protocol.Committed{Msg: p.Msg})
		default:
			panic(fmt.Sprintf("spanner: server %s got %T", s.ID(), m.Payload))
		}
	}
	// Un-park reads whose timestamp is now safe (pending is settled for
	// this step: one safe time serves the whole pass).
	safe := s.safeTime(now)
	s.parked.Retry(func(r *protocol.Read[int64]) bool { return safe >= r.At }, s.serveRead)
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

// ReadPoint implements protocol.ReadPointer: the active ROT's timestamp,
// else the least one a ROT started at now or later picks.
func (c *client) ReadPoint(now sim.Time) (store.Horizon, bool) {
	if c.phase == reading {
		now = sim.Time(c.Result().Invoked)
	}
	return store.Horizon{At: vclock.HLCStamp{Wall: int64(now) + c.skew + Epsilon}}, true
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
		case *protocol.ReadReply[struct{}]:
			if c.phase == reading && c.Reply(p) {
				p.Fill(&c.Core)
			}
		case *protocol.Prepared[int64]:
			if c.phase == preparing && c.Reply(p) {
				if p.Stamp > c.commitTS {
					c.commitTS = p.Stamp
				}
			}
		case *protocol.Committed:
			if c.phase == committing {
				c.Reply(p)
			}
		}
	}
	if c.Starting(now) {
		if c.Current().IsReadOnly() {
			c.phase = reading
			protocol.SendReads(&c.Core, int64(now)+c.skew+Epsilon) // TT.now().latest
		} else {
			c.phase = preparing
			c.commitTS = 0
			protocol.SendPrepares(&c.Core, struct{}{})
		}
		return c.Sent()
	}
	if c.RoundDone() {
		switch c.phase {
		case reading:
			c.phase = idle
			c.Finish(now)
		case preparing:
			c.phase = committing
			protocol.SendCommits(&c.Core, c.commitTS)
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
