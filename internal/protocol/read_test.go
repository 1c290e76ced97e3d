package protocol

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestReadRound: on a replicated placement a read reaches only the
// primary of each object read. SendReads sends one Read per ReadShares
// entry in Servers() order, each with its share's objects and the one q;
// the reads are the transaction's one round; a reply lists its values in
// Vals order, ⊥ included. A struct{} Q or M adds no padding.
func TestReadRound(t *testing.T) {
	// X0 on s0, s1; X1 on s1, s2; X3 on s3, s0: s2 is no primary read.
	pl := Replicated(4, 4, 2)
	c := NewCore("cX", pl, fake{})
	txn := model.NewReadOnly(model.TxnID{}, "X3", "X1", "X0")
	id := c.Invoke(txn)
	if !c.Starting(1) {
		t.Fatal("read-only transaction refused")
	}
	want := []sim.ProcessID{"s0", "s1", "s3"}
	shares := pl.ReadShares(nil, txn.ReadSet)

	q := []int64{7}
	SendReads(&c, q)
	out := slices.Clone(c.Sent())
	if len(out) != len(shares) || len(out) != len(want) {
		t.Fatalf("%d reads for %d shares, want %d", len(out), len(shares), len(want))
	}
	for i, o := range out {
		r, ok := o.Payload.(*Read[[]int64])
		switch {
		case !ok:
			t.Fatalf("read %d is %T", i, o.Payload)
		case o.To != want[i] || o.To != shares[i].Server:
			t.Fatalf("read %d to %s, want %s (share %s)", i, o.To, want[i], shares[i].Server)
		case r.TID != id || r.Kind() != "read-req":
			t.Fatalf("read %d: txn %v kind %q", i, r.TID, r.Kind())
		case !slices.Equal(r.Objs, shares[i].Items) || len(r.Objs) != 1 || r.Objs[0] != txn.ReadSet[i]:
			t.Fatalf("read %d objects %v, want %v", i, r.Objs, shares[i].Items)
		case &r.Objs[0] != &txn.ReadSet[i]:
			t.Fatalf("read %d carries a copy of its object", i)
		case &r.At[0] != &q[0]:
			t.Fatalf("read %d carries a copy of q", i)
		}
	}
	if c.Rounds() != 1 || c.RoundDone() {
		t.Fatalf("after the reads: rounds %d, done %v", c.Rounds(), c.RoundDone())
	}
	for _, o := range out {
		if c.RoundDone() {
			t.Fatal("round done before every read was answered")
		}
		c.Reply(ReplyTo[struct{}](o.Payload.(*Read[[]int64])))
	}
	if !c.RoundDone() || c.Finish(2).Rounds != 1 {
		t.Fatal("read round not done, or not the only round, after every reply")
	}

	w := model.TxnID{Client: "cW", Seq: 3}
	req := &Read[struct{}]{Msg: Msg{TID: id}, Objs: []string{"X0", "X2"}}
	resp := ReplyTo[int64](req)
	resp.Add("X0", &store.Version{Object: "X0", Value: "a", Writer: w}, 5)
	resp.Add("X2", nil, 0)
	refs := []model.ValueRef{{Object: "X0", Value: "a", Writer: w}, {Object: "X2", Value: model.Bottom}}
	switch {
	case resp.TID != id || resp.Kind() != "read-resp":
		t.Fatalf("reply: txn %v kind %q", resp.TID, resp.Kind())
	case !slices.Equal(resp.CarriedValues(), refs):
		t.Fatalf("CarriedValues = %v, want %v", resp.CarriedValues(), refs)
	case resp.Vals[0].Meta != 5 || resp.Vals[1].Meta != 0 || cap(resp.Vals) != len(req.Objs):
		t.Fatalf("Vals %+v (cap %d), want metas 5, 0 in room for %d", resp.Vals, cap(resp.Vals), len(req.Objs))
	}

	type bare struct {
		Msg
		Objs []string
	}
	if a, b := unsafe.Sizeof(Read[struct{}]{}), unsafe.Sizeof(bare{}); a != b {
		t.Errorf("Read[struct{}] is %d bytes, its fields %d", a, b)
	}
	if a, b := unsafe.Sizeof(Val[struct{}]{}), unsafe.Sizeof(model.ValueRef{}); a != b {
		t.Errorf("Val[struct{}] is %d bytes, a ValueRef %d", a, b)
	}
}
