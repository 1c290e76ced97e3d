package protocol

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestWriteRound: on a replicated placement SendWrites sends one Write
// per WriteShares entry, to every replica of each written object in
// Servers() order, each with its share's writes and the one dep.
// SendPrimaryWrite sends the last write alone, carved from the
// transaction's own writes, to its object's primary, also when the
// transaction writes that object twice. Either send is the transaction's
// one round. A struct{} D or S adds no padding.
func TestWriteRound(t *testing.T) {
	// X0 on s0, s1; X1 on s1, s2; X3 on s3, s0; s3 holds neither write.
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
	SendWrites(&c, dep)
	out := slices.Clone(c.Sent())
	if len(out) != len(shares) || len(out) != len(want) {
		t.Fatalf("%d writes for %d shares, want %d", len(out), len(shares), len(want))
	}
	for i, o := range out {
		w, ok := o.Payload.(*Write[[]int64])
		switch {
		case !ok:
			t.Fatalf("write %d is %T", i, o.Payload)
		case o.To != want[i] || o.To != shares[i].Server:
			t.Fatalf("write %d to %s, want %s (share %s)", i, o.To, want[i], shares[i].Server)
		case w.TID != id || w.Kind() != "write-req":
			t.Fatalf("write %d: txn %v kind %q", i, w.TID, w.Kind())
		case !slices.Equal(w.Writes, shares[i].Items):
			t.Fatalf("write %d writes %v, want %v", i, w.Writes, shares[i].Items)
		case &w.Dep[0] != &dep[0]:
			t.Fatalf("write %d carries a copy of dep", i)
		}
	}
	if got := out[1].Payload.(*Write[[]int64]).Writes; len(got) != 2 || got[0].Object != "X1" {
		t.Fatalf("s1's share %v: want both writes in request order", got)
	}
	if c.Rounds() != 1 || c.RoundDone() {
		t.Fatalf("after the writes: rounds %d, done %v", c.Rounds(), c.RoundDone())
	}
	for range out {
		c.Reply(&WriteAck[struct{}]{Msg: Msg{TID: id}})
	}
	if !c.RoundDone() || c.Finish(2).Rounds != 1 {
		t.Fatal("write round not done, or not the only round, after every ack")
	}

	// X3's primary is s3, though s0 holds it too and sorts first.
	one := NewCore("cY", pl, fake{})
	twice := model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X3", Value: "a"}, model.Write{Object: "X3", Value: "b"})
	id = one.Invoke(twice)
	if !one.Starting(1) {
		t.Fatal("a transaction writing one object twice refused")
	}
	SendPrimaryWrite(&one, int64(5))
	sent := one.Sent()
	if len(sent) != 1 {
		t.Fatalf("%d writes, want 1", len(sent))
	}
	w, ok := sent[0].Payload.(*Write[int64])
	switch {
	case !ok:
		t.Fatalf("write is %T", sent[0].Payload)
	case sent[0].To != "s3" || sent[0].To != pl.PrimaryOf("X3"):
		t.Fatalf("write to %s, want X3's primary s3", sent[0].To)
	case w.TID != id || w.Dep != 5:
		t.Fatalf("write: txn %v dep %d", w.TID, w.Dep)
	case len(w.Writes) != 1 || &w.Writes[0] != &twice.Writes[1]:
		t.Fatalf("writes %v, want the last write, not a copy", w.Writes)
	}
	if one.Rounds() != 1 {
		t.Fatalf("after the write: rounds %d, want 1", one.Rounds())
	}
	ack := &WriteAck[int64]{Msg: w.Msg, Stamp: 9}
	if !one.Reply(ack) || !one.RoundDone() || ack.Kind() != "write-ack" {
		t.Fatalf("ack %q did not end the round", ack.Kind())
	}

	type bare struct {
		Msg
		Writes []model.Write
	}
	if a, b := unsafe.Sizeof(Write[struct{}]{}), unsafe.Sizeof(bare{}); a != b {
		t.Errorf("Write[struct{}] is %d bytes, its fields %d", a, b)
	}
	if a, b := unsafe.Sizeof(WriteAck[struct{}]{}), unsafe.Sizeof(Msg{}); a != b {
		t.Errorf("WriteAck[struct{}] is %d bytes, its header %d", a, b)
	}
}
