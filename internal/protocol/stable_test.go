package protocol

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vclock"
)

var testKinds = &StableKinds{Gossip: "g", Req: "q", Resp: "r"}

// stablePlacement puts one object on each of n servers.
func stablePlacement(n int) *Placement {
	replicas := make(map[string][]sim.ProcessID)
	for i := 0; i < n; i++ {
		replicas[fmt.Sprintf("X%d", i)] = []sim.ProcessID{sim.ProcessID(fmt.Sprintf("s%d", i))}
	}
	return NewPlacement(replicas)
}

// TestStabilizerMin: the scalar snapshot is exactly the zero stamp while
// any peer is unheard, even when the local stamp sits below zero (wren's
// {0,-1} while an initial version's prepare at the zero stamp is
// pending); once every peer is heard it is the least stamp, local
// included. Heard keeps the larger stamp of a peer.
func TestStabilizerMin(t *testing.T) {
	pl := stablePlacement(3)
	st := NewStabilizer[vclock.HLCStamp, HLCs](testKinds, "s1", pl)
	hlc := func(w, l int64) vclock.HLCStamp { return vclock.HLCStamp{Wall: w, Logical: l} }
	gossip := func(idx int, s vclock.HLCStamp) *StableGossip[vclock.HLCStamp] {
		return &StableGossip[vclock.HLCStamp]{kinds: testKinds, Idx: idx, Stamp: s}
	}
	below := hlc(0, -1)
	if got := st.Min(below); got != (vclock.HLCStamp{}) {
		t.Fatalf("Min(%v) with no peer heard = %v, want the zero stamp", below, got)
	}
	st.Heard(gossip(0, hlc(9, 0)))
	if got := st.Min(hlc(20, 0)); got != (vclock.HLCStamp{}) {
		t.Fatalf("Min with s2 unheard = %v, want the zero stamp", got)
	}
	st.Heard(gossip(2, hlc(7, 3)))
	if got := st.Min(hlc(20, 0)); got != hlc(7, 3) {
		t.Fatalf("Min = %v, want s2's 7.3", got)
	}
	if got := st.Min(below); got != below {
		t.Fatalf("Min(%v) with every peer heard = %v, want the local stamp", below, got)
	}
	st.Heard(gossip(2, hlc(7, 1)))
	if got := st.Min(hlc(20, 0)); got != hlc(7, 3) {
		t.Fatalf("Min = %v after s2's older 7.1, want 7.3 (Heard keeps the larger stamp)", got)
	}
	st.Heard(gossip(0, hlc(12, 0)))
	st.Heard(gossip(2, hlc(11, 0)))
	if got := st.Min(hlc(20, 0)); got != hlc(11, 0) {
		t.Fatalf("Min = %v, want s2's 11.0", got)
	}
	if got := st.Min(hlc(10, 5)); got != hlc(10, 5) {
		t.Fatalf("Min = %v, want the local 10.5", got)
	}
}

// TestStabilizerPublishAndVector: Publish sends nothing unless the stamp
// advanced past the last one published, and otherwise one gossip per
// peer in Servers() order carrying the sender's index; the vector
// snapshot is the table with the local entry set. A clone does not share
// the table.
func TestStabilizerPublishAndVector(t *testing.T) {
	pl := stablePlacement(4)
	sc := NewServerCore("s2", pl)
	st := NewStabilizer[int64, Counters](testKinds, "s2", pl)
	publish := func(local int64) []string {
		st.Publish(&sc, local)
		var out []string
		for _, o := range sc.Sent() {
			g := o.Payload.(*StableGossip[int64])
			out = append(out, fmt.Sprintf("%s %s %d:%d", o.To, g.Kind(), g.Idx, g.Stamp))
		}
		return out
	}
	if got := publish(0); got != nil {
		t.Fatalf("published the zero stamp: %v", got)
	}
	if got, want := publish(5), []string{"s0 g 2:5", "s1 g 2:5", "s3 g 2:5"}; !slices.Equal(got, want) {
		t.Fatalf("Publish(5) sent %v, want %v", got, want)
	}
	for _, local := range []int64{5, 4} {
		if got := publish(local); got != nil {
			t.Fatalf("Publish(%d) after 5 sent %v", local, got)
		}
	}
	if got := publish(6); len(got) != 3 {
		t.Fatalf("Publish(6) sent %v, want one gossip per peer", got)
	}

	st.Heard(&StableGossip[int64]{kinds: testKinds, Idx: 0, Stamp: 3})
	st.Heard(&StableGossip[int64]{kinds: testKinds, Idx: 3, Stamp: 8})
	c := st.Clone()
	c.Heard(&StableGossip[int64]{kinds: testKinds, Idx: 0, Stamp: 4})
	if got, want := st.Vector(7), []int64{3, 0, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("Vector(7) = %v, want %v", got, want)
	}
	if got, want := c.Vector(7), []int64{4, 0, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("clone's Vector(7) = %v, want %v", got, want)
	}
	v := st.Vector(7)
	v[1] = 99
	if got := st.Vector(7); got[1] != 0 {
		t.Fatalf("writing a returned vector reached the table: %v", got)
	}
	c.Publish(&sc, 7)
	if n := len(sc.Sent()); n != 3 {
		t.Fatalf("the clone's Publish(7) sent %d gossips, want 3", n)
	}
	if got := publish(7); len(got) != 3 {
		t.Fatalf("a clone's Publish moved the original's last stamp: Publish(7) sent %v", got)
	}
}

// TestStableRequestAnswer: a snapshot request and its answer carry the
// model's kind names and the transaction.
func TestStableRequestAnswer(t *testing.T) {
	tid := model.TxnID{Client: "c0", Seq: 3}
	req := testKinds.Request(tid)
	resp := Answer(req, vclock.Vector{1, 2})
	if req.Kind() != "q" || resp.Kind() != "r" || req.Txn() != tid || resp.Txn() != tid {
		t.Fatalf("request %s %v, answer %s %v", req.Kind(), req.Txn(), resp.Kind(), resp.Txn())
	}
	if !slices.Equal(resp.Snap, vclock.Vector{1, 2}) {
		t.Fatalf("answer carries %v", resp.Snap)
	}
}
