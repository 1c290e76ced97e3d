package model

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTxnKinds(t *testing.T) {
	ro := NewReadOnly(TxnID{"c0", 1}, "X1", "X0", "X1")
	if !ro.IsReadOnly() {
		t.Fatal("read-only misclassified")
	}
	if len(ro.ReadSet) != 2 || ro.ReadSet[0] != "X0" || ro.ReadSet[1] != "X1" {
		t.Fatalf("read set not deduped/sorted: %v", ro.ReadSet)
	}
	wo := NewWriteOnly(TxnID{"c0", 2}, Write{"X0", "a"}, Write{"X1", "b"})
	if wo.IsReadOnly() {
		t.Fatal("write-only misclassified")
	}
	rw := &Txn{ID: TxnID{"c0", 3}, ReadSet: []string{"X0"}, Writes: []Write{{"X0", "c"}}}
	if rw.IsReadOnly() {
		t.Fatal("read-write misclassified")
	}
}

func TestWriteSet(t *testing.T) {
	w := NewWriteOnly(TxnID{"c1", 1},
		Write{"X1", "v1"}, Write{"X0", "v0"}, Write{"X1", "v2"})
	ws := w.WriteSet()
	if len(ws) != 2 || ws[0] != "X0" || ws[1] != "X1" {
		t.Fatalf("write set = %v", ws)
	}
}

func TestObjectsUnion(t *testing.T) {
	txn := &Txn{ID: TxnID{"c", 1}, ReadSet: []string{"B", "A"}, Writes: []Write{{"C", "x"}, {"A", "y"}}}
	objs := txn.Objects()
	want := []string{"A", "B", "C"}
	if len(objs) != 3 {
		t.Fatalf("objects = %v", objs)
	}
	for i := range want {
		if objs[i] != want[i] {
			t.Fatalf("objects = %v, want %v", objs, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := &Txn{ID: TxnID{"c", 1}, ReadSet: []string{"A"}, Writes: []Write{{"B", "v"}}}
	c := orig.Clone()
	c.ReadSet[0] = "Z"
	c.Writes[0].Value = "w"
	if orig.ReadSet[0] != "A" || orig.Writes[0].Value != "v" {
		t.Fatal("clone shares storage with original")
	}
}

func TestResultHelpers(t *testing.T) {
	var nilRes *Result
	if nilRes.OK() {
		t.Fatal("nil result reported OK")
	}
	if nilRes.Value("X") != Bottom {
		t.Fatal("nil result value not Bottom")
	}
	r := &Result{Txn: NewReadOnly(TxnID{}, "X", "Z"), Values: make([]Value, 2)}
	r.SetValue("Z", "z")
	r.SetValue("X", "v")
	if !r.OK() || r.Value("X") != "v" || r.Value("Z") != "z" || r.Value("Y") != Bottom {
		t.Fatal("result accessors wrong")
	}
	if fmt.Sprint(r.Values) != "[v z]" {
		t.Fatalf("values %v not aligned with the read set", r.Values)
	}
	r.Err = "boom"
	if r.OK() {
		t.Fatal("errored result reported OK")
	}
}

func TestDedupeSortedProperty(t *testing.T) {
	f := func(raw []string) bool {
		out := dedupeSorted(raw)
		for i := 1; i < len(out); i++ {
			if out[i-1] >= out[i] {
				return false // must be strictly increasing
			}
		}
		// every input present in output
		set := make(map[string]bool, len(out))
		for _, s := range out {
			set[s] = true
		}
		for _, s := range raw {
			if !set[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTxnIDString(t *testing.T) {
	id := TxnID{Client: "c3", Seq: 42}
	if id.String() != "c3/42" {
		t.Fatalf("String() = %q", id.String())
	}
	if id.IsZero() {
		t.Fatal("non-zero ID reported zero")
	}
	if !(TxnID{}).IsZero() {
		t.Fatal("zero ID not reported zero")
	}
}
