package protocol

import (
	"slices"

	"repro/internal/model"
	"repro/internal/sim"
)

// Stabilizer is the one way cure, gentlerain, orbe and wren learn how far
// every server has stabilized. A server gossips its local stable stamp S
// (a counter for cure and orbe, a hybrid clock stamp for gentlerain and
// wren) when it advances, and keeps the largest stamp each peer gossiped.
// A read-only transaction first asks one server for a snapshot built from
// that table, then reads at it: the snapshot lags by the gossip delay, the
// freshness these models pay for a snapshot every server agrees on.
//
// The table is indexed by server index, and the zero stamp means unheard:
// a server publishes only a stamp past the last it published, which
// starts at zero, so no peer ever gossips the zero stamp.
type Stabilizer[S comparable, O Order[S]] struct {
	kinds *StableKinds
	idx   int
	known []S
	last  S // the last stamp published
}

// StableKinds names a model's stabilization messages (trace lanes print
// Kind); each model shares one by pointer with every message it builds.
type StableKinds struct{ Gossip, Req, Resp string }

// NewStabilizer returns the service of server id, with nothing heard yet.
func NewStabilizer[S comparable, O Order[S]](kinds *StableKinds, id sim.ProcessID, pl *Placement) Stabilizer[S, O] {
	return Stabilizer[S, O]{kinds: kinds, idx: pl.ServerIndex(id), known: make([]S, pl.NumServers())}
}

// StableGossip carries a server's local stable stamp to its peers.
type StableGossip[S any] struct {
	kinds *StableKinds
	Idx   int // the sender's server index
	Stamp S
}

func (g *StableGossip[S]) Kind() string { return g.kinds.Gossip }

// StableReq asks a server for its stable snapshot.
type StableReq struct {
	kinds *StableKinds
	Msg
}

func (r *StableReq) Kind() string { return r.kinds.Req }

// StableResp answers a StableReq with the snapshot: a vector (Vector) or a
// scalar (Min).
type StableResp[T any] struct {
	kinds *StableKinds
	Msg
	Snap T
}

func (r *StableResp[T]) Kind() string { return r.kinds.Resp }

// Request returns the snapshot request of transaction tid.
func (k *StableKinds) Request(tid model.TxnID) *StableReq {
	return &StableReq{kinds: k, Msg: Msg{TID: tid}}
}

// Answer returns req's response carrying snap.
func Answer[T any](req *StableReq, snap T) *StableResp[T] {
	return &StableResp[T]{kinds: req.kinds, Msg: req.Msg, Snap: snap}
}

// Heard records a peer's gossip, keeping the larger stamp.
func (st *Stabilizer[S, O]) Heard(g *StableGossip[S]) {
	var o O
	if o.Less(st.known[g.Idx], g.Stamp) {
		st.known[g.Idx] = g.Stamp
	}
}

// Publish gossips local to every peer, in Servers() order, if it is past
// the last stamp published; otherwise it sends nothing. Every peer gets
// the same payload (payloads are immutable once sent).
func (st *Stabilizer[S, O]) Publish(s *ServerCore, local S) {
	var o O
	if !o.Less(st.last, local) {
		return
	}
	st.last = local
	g := &StableGossip[S]{kinds: st.kinds, Idx: st.idx, Stamp: local}
	for _, other := range s.pl.servers {
		if other != s.id {
			s.Send(other, g)
		}
	}
}

// Vector is the vector snapshot: the table with this server's entry set
// to local.
func (st *Stabilizer[S, O]) Vector(local S) []S {
	v := slices.Clone(st.known)
	v[st.idx] = local
	return v
}

// Min is the scalar snapshot: the least of local and the peers' stamps,
// and exactly the zero stamp while any peer is unheard (with no
// information the snapshot sits below every write, local included).
func (st *Stabilizer[S, O]) Min(local S) S {
	var o O
	var zero S
	m := local
	for i, k := range st.known {
		switch {
		case i == st.idx:
		case k == zero:
			return zero
		case o.Less(k, m):
			m = k
		}
	}
	return m
}

// Clone returns a copy with its own table.
func (st *Stabilizer[S, O]) Clone() Stabilizer[S, O] {
	c := *st
	c.known = slices.Clone(st.known)
	return c
}
