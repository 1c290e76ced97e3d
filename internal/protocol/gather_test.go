package protocol

import (
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/store"
)

// TestGather: Start makes a zero slot per read-set object; Put stores a
// reply's values by read-set position, overwriting or, given newer,
// keeping the newer of two; Clone copies the slots; Fill writes them
// into the result, empties them and keeps their capacity for the next
// ROT. A reply's own Fill sets its values by object.
func TestGather(t *testing.T) {
	c := NewCore("cX", Replicated(3, 3, 1), fake{})
	c.Invoke(model.NewReadOnly(model.TxnID{}, "X2", "X0", "X1"))
	c.Starting(1)
	var g Gather[int64]
	g.Start(&c)
	if len(g.Vals) != 3 || g.Vals[0] != (Val[int64]{}) {
		t.Fatalf("Start: %+v, want 3 zero slots", g.Vals)
	}
	reply := func(meta int64, objs ...string) *ReadReply[int64] {
		r := ReplyTo[int64](&Read[struct{}]{Objs: objs})
		for _, o := range objs {
			r.Add(o, &store.Version{Object: o, Value: model.Value(o + "@" + string(rune('0'+meta)))}, meta)
		}
		return r
	}
	later := func(v, cur Val[int64]) bool { return v.Meta > cur.Meta }

	g.Put(&c, reply(5, "X2", "X0"), nil)
	g.Put(&c, reply(3, "X0"), later) // older: kept out
	g.Put(&c, reply(3, "X0"), nil)   // no rule: overwrites
	g.Put(&c, reply(7, "X2"), later) // newer: replaces
	want := []int64{3, 0, 7}
	for i, v := range g.Vals {
		if v.Meta != want[i] {
			t.Fatalf("slot %d (%s) meta %d, want %d: %+v", i, c.Current().ReadSet[i], v.Meta, want[i], g.Vals)
		}
	}

	cp := g.Clone()
	cp.Vals[0].Meta = 99
	if g.Vals[0].Meta != 3 {
		t.Fatal("Clone shares its slots with the original")
	}

	first := &g.Vals[0]
	g.Fill(&c)
	if vals := c.Result().Values; !slices.Equal(vals, []model.Value{"X0@3", model.Bottom, "X2@7"}) {
		t.Fatalf("Fill: result %v", vals)
	}
	if len(g.Vals) != 0 || cap(g.Vals) != 3 {
		t.Fatalf("after Fill: len %d cap %d, want 0, 3", len(g.Vals), cap(g.Vals))
	}
	c.Finish(2)

	c.Invoke(model.NewReadOnly(model.TxnID{}, "X1", "X2"))
	c.Starting(3)
	g.Start(&c)
	if len(g.Vals) != 2 || &g.Vals[0] != first || g.Vals[0] != (Val[int64]{}) {
		t.Fatalf("second Start: %+v, want 2 zero slots in the first ROT's array", g.Vals)
	}
	reply(1, "X2", "X1").Fill(&c)
	if vals := c.Result().Values; !slices.Equal(vals, []model.Value{"X1@1", "X2@1"}) {
		t.Fatalf("ReadReply.Fill: result %v", vals)
	}
}
