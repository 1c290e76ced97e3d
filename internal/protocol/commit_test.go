package protocol

import (
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestTwoPhaseRounds: on a replicated placement a prepare reaches every
// replica of a written object, not only its primary. SendPrepares sends
// one Prepare per WriteShares entry in Servers() order, each with its
// share's writes and the one dep; SendCommits sends to the same servers
// in the same order; the two phases are the transaction's two rounds.
func TestTwoPhaseRounds(t *testing.T) {
	// X0 on s0, s1; X1 on s1, s2; s3 holds neither.
	pl := Replicated(4, 4, 2)
	c := NewCore("cX", pl, fake{multiWrite: true})
	txn := model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X1", Value: "b"}, model.Write{Object: "X0", Value: "a"})
	id := c.Invoke(txn)
	if !c.Starting(1) {
		t.Fatal("write transaction refused")
	}
	want := []sim.ProcessID{"s0", "s1", "s2"}
	shares := pl.WriteShares(txn.Writes)

	dep := []int64{7}
	SendPrepares(&c, dep)
	out := slices.Clone(c.Sent())
	if len(out) != len(shares) || len(out) != len(want) {
		t.Fatalf("%d prepares for %d shares, want %d", len(out), len(shares), len(want))
	}
	for i, o := range out {
		p, ok := o.Payload.(*Prepare[[]int64])
		switch {
		case !ok:
			t.Fatalf("prepare %d is %T", i, o.Payload)
		case o.To != want[i] || o.To != shares[i].Server:
			t.Fatalf("prepare %d to %s, want %s (share %s)", i, o.To, want[i], shares[i].Server)
		case p.TID != id || p.Kind() != "prepare":
			t.Fatalf("prepare %d: txn %v kind %q", i, p.TID, p.Kind())
		case !slices.Equal(p.Writes, shares[i].Items):
			t.Fatalf("prepare %d writes %v, want %v", i, p.Writes, shares[i].Items)
		case &p.Dep[0] != &dep[0]:
			t.Fatalf("prepare %d carries a copy of dep", i)
		}
	}
	if got := out[1].Payload.(*Prepare[[]int64]).Writes; len(got) != 2 || got[0].Object != "X1" {
		t.Fatalf("s1's share %v: want both writes in request order", got)
	}
	if c.Rounds() != 1 || c.RoundDone() {
		t.Fatalf("after the prepares: rounds %d, done %v", c.Rounds(), c.RoundDone())
	}
	for range out {
		c.Reply(&Prepared[int64]{Msg: Msg{TID: id}, Stamp: 3})
	}
	if !c.RoundDone() {
		t.Fatal("every prepare acknowledged, round still open")
	}

	SendCommits(&c, int64(9))
	commits := slices.Clone(c.Sent())
	if servers := pl.ServersFor(txn.WriteSet()); !slices.Equal(servers, want) {
		t.Fatalf("ServersFor = %v, want %v", servers, want)
	}
	if len(commits) != len(want) {
		t.Fatalf("%d commits, want %d", len(commits), len(want))
	}
	for i, o := range commits {
		p, ok := o.Payload.(*Commit[int64])
		if !ok || o.To != out[i].To || p.TID != id || p.Stamp != 9 || p.Kind() != "commit" {
			t.Fatalf("commit %d: %s %#v, want to %s with stamp 9", i, o.To, o.Payload, out[i].To)
		}
	}
	if c.Rounds() != 2 {
		t.Fatalf("after the commits: rounds %d, want 2", c.Rounds())
	}
	for range commits {
		c.Reply(&Committed{Msg: Msg{TID: id}})
	}
	if !c.RoundDone() || c.Finish(2).Rounds != 2 {
		t.Fatal("commit round not done after every ack")
	}
	if k := (&Prepared[int64]{}).Kind() + " " + (&Committed{}).Kind(); k != "prepare-ack commit-ack" {
		t.Fatalf("ack kinds %q", k)
	}
}
