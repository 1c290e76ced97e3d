// Package cops models COPS (Lloyd et al., SOSP 2011): causally consistent,
// single-object writes carrying explicit dependency metadata, and get-
// transactions (read-only transactions) that are non-blocking and take at
// most two rounds — the first round optimistically fetches the latest
// value of every object plus its dependencies; if the returned versions
// are mutually inconsistent (some value depends on a newer version of
// another object than the one returned), a second round fetches the
// specific missing versions. Each message carries at most one value per
// object, but an object may be fetched twice across the two rounds (the
// "≤ 2 rounds, ≤ 2 values" row of Table 1).
package cops

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/store"
)

// Protocol is the cops factory.
type Protocol struct{}

// New returns the protocol.
func New() *Protocol { return &Protocol{} }

// Name implements protocol.Protocol.
func (*Protocol) Name() string { return "cops" }

// Claims implements protocol.Protocol.
func (*Protocol) Claims() protocol.Claims {
	return protocol.Claims{
		OneRound:      false, // up to 2
		OneValue:      true,  // per message
		NonBlocking:   true,
		MultiWriteTxn: false,
		Consistency:   "causal",
	}
}

// NewServer implements protocol.Protocol.
func (*Protocol) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &server{ServerCore: protocol.NewLatestServerCore(id, pl)}
}

// NewClient implements protocol.Protocol.
func (p *Protocol) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return &client{Core: protocol.NewCore(id, pl, p)}
}

// leafSize is how many objects one dependency leaf covers.
const leafSize = 16

// leaf holds the dependency sequences of leafSize consecutive objects. It
// holds no pointers, so the collector never scans it.
type leaf [leafSize]int64

// deps is a dependency vector: entry i is the sequence of the newest
// version of the placement's i-th object (Objects() order) depended on,
// 0 for none. A nil or missing leaf reads as zeros. The vectors a client
// sends share their leaves, and a leaf is never written once sent (a
// payload's %#v shows leaf addresses, so TestContextMatchesReference is
// what checks this). A version's deps is its store.Version.Meta.
type deps []*leaf

// seq returns entry i.
func (d deps) seq(i int) int64 {
	if l := i / leafSize; l < len(d) && d[l] != nil {
		return d[l][i%leafSize]
	}
	return 0
}

// causalContext is a client's causal context: the deps it would send now.
// It writes its leaves in place, but copies a leaf the first time it
// changes one that a snapshot shares.
type causalContext struct {
	vec   deps
	owned []bool // owned[l]: vec[l] is in no snapshot, so writable
}

// set makes entry i seq.
func (c *causalContext) set(i int, seq int64) {
	l := i / leafSize
	if grow := l + 1 - len(c.vec); grow > 0 {
		c.vec = append(c.vec, make(deps, grow)...)
		c.owned = append(c.owned, make([]bool, grow)...)
	}
	if !c.owned[l] {
		fresh := new(leaf)
		if c.vec[l] != nil {
			*fresh = *c.vec[l]
		}
		c.vec[l], c.owned[l] = fresh, true
	}
	c.vec[l][i%leafSize] = seq
}

// observe raises entry i to seq.
func (c *causalContext) observe(i int, seq int64) {
	if seq > c.vec.seq(i) {
		c.set(i, seq)
	}
}

// snapshot returns the context as it stands. It shares every leaf, so
// the context owns none of them afterwards.
func (c *causalContext) snapshot() deps {
	clear(c.owned)
	return slices.Clone(c.vec)
}

// clone returns an independent copy without writing the receiver: leaves
// a snapshot shares stay shared, and the ones the receiver still owns are
// copied for the clone to own.
func (c *causalContext) clone() causalContext {
	cp := causalContext{vec: slices.Clone(c.vec), owned: slices.Clone(c.owned)}
	for l, own := range c.owned {
		if own {
			fresh := *c.vec[l]
			cp.vec[l] = &fresh
		}
	}
	return cp
}

// --- payloads ---

// readMeta is what a value read carries: its install sequence and its
// writer's dependencies.
type readMeta struct {
	Seq  int64
	Deps deps
}

// --- server ---

type server struct {
	protocol.ServerCore
}

func (s *server) Clone() sim.Process {
	return &server{ServerCore: s.CloneServerCore()}
}

func metaOf(v *store.Version) readMeta {
	if v == nil {
		return readMeta{}
	}
	return readMeta{Seq: v.Seq, Deps: v.Meta.(deps)}
}

func (s *server) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.Read[struct{}]:
			resp := protocol.ReplyTo[readMeta](p)
			for _, obj := range p.Objs {
				v := s.ShardStore().LatestVisible(obj)
				resp.Add(obj, v, metaOf(v))
			}
			s.Send(m.From, resp)
		case *protocol.Write[deps]:
			w := p.Writes[0]
			v := s.ShardStore().Install(&store.Version{Object: w.Object, Value: w.Value, Writer: p.TID, Visible: true, Meta: p.Dep})
			s.Send(m.From, &protocol.WriteAck[int64]{Msg: p.Msg, Stamp: v.Seq})
		default:
			panic(fmt.Sprintf("cops: server %s got %T", s.ID(), m.Payload))
		}
	}
	return s.Sent()
}

// --- client ---

type phase uint8

const (
	idle phase = iota
	round1
	round2
	writing
)

type client struct {
	protocol.Core
	phase phase
	ctx   causalContext
	got   protocol.Gather[readMeta] // the newest version of each object fetched so far
}

func (c *client) Clone() sim.Process {
	return &client{Core: c.CloneCore(), phase: c.phase, ctx: c.ctx.clone(), got: c.got.Clone()}
}

// newer keeps the newer of two rounds' versions of an object.
func newer(v, cur protocol.Val[readMeta]) bool { return v.Meta.Seq > cur.Meta.Seq }

// stale reports whether a fetched version depends on a newer version of
// read-set object b than slot b holds.
func (c *client) stale(b int) bool {
	obj, have := c.Placement().ObjectIndex(c.Current().ReadSet[b]), c.got.Vals[b].Meta.Seq
	for _, a := range c.got.Vals {
		if a.Meta.Deps.seq(obj) > have {
			return true
		}
	}
	return false
}

func (c *client) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case *protocol.ReadReply[readMeta]:
			if (c.phase == round1 || c.phase == round2) && c.Reply(p) {
				c.got.Put(&c.Core, p, newer)
			}
		case *protocol.WriteAck[int64]:
			if c.phase == writing && c.Reply(p) {
				w := c.Current().Writes[len(c.Current().Writes)-1]
				c.ctx.set(c.Placement().ObjectIndex(w.Object), p.Stamp)
			}
		}
	}
	if c.Starting(now) {
		t := c.Current()
		if t.IsReadOnly() {
			c.phase = round1
			c.got.Start(&c.Core)
			protocol.SendReads(&c.Core, struct{}{})
		} else {
			c.phase = writing
			protocol.SendPrimaryWrite(&c.Core, c.ctx.snapshot())
		}
		return c.Sent()
	}
	if c.RoundDone() {
		t := c.Current()
		switch c.phase {
		case round1:
			// Second round: read again, in ReadSet (sorted) order, each
			// object a fetched value depends on at a newer version. The
			// server's latest visible version is at least that new
			// whenever the dependency's writer completed, so this never
			// blocks.
			for i, obj := range t.ReadSet {
				if c.stale(i) {
					c.phase = round2
					c.Send(c.Placement().PrimaryOf(obj), &protocol.Read[struct{}]{
						Msg: protocol.Msg{TID: t.ID}, Objs: []string{obj},
					})
				}
			}
			if c.phase == round1 {
				c.finishRead(now)
			}
		case round2:
			c.finishRead(now)
		case writing:
			c.phase = idle
			c.Finish(now)
		}
	}
	return c.Sent()
}

func (c *client) finishRead(now sim.Time) {
	for i, obj := range c.Current().ReadSet {
		if v := c.got.Vals[i]; v.Ref.Value != model.Bottom {
			c.ctx.observe(c.Placement().ObjectIndex(obj), v.Meta.Seq)
		}
	}
	c.got.Fill(&c.Core)
	c.phase = idle
	c.Finish(now)
}
