package vclock

import (
	"testing"
	"testing/quick"
)

func TestLamportMonotone(t *testing.T) {
	l := &Lamport{}
	prev := int64(0)
	for i := 0; i < 10; i++ {
		v := l.Tick()
		if v <= prev {
			t.Fatalf("tick not monotone: %d after %d", v, prev)
		}
		prev = v
	}
	if got := l.Observe(100); got != 101 {
		t.Fatalf("observe(100) = %d, want 101", got)
	}
	if got := l.Observe(5); got != 102 {
		t.Fatalf("observe(5) = %d, want 102", got)
	}
}

func TestLamportClone(t *testing.T) {
	l := &Lamport{T: 7}
	c := l.Clone()
	c.Tick()
	if l.T != 7 {
		t.Fatal("clone mutated original")
	}
}

func mkVec(a [4]int8) Vector {
	v := NewVector(4)
	for i, x := range a {
		if x < 0 {
			x = -x
		}
		v[i] = int64(x)
	}
	return v
}

func TestVectorMergeIsLUB(t *testing.T) {
	// merge(a,b) dominates both and is the least such vector.
	f := func(a, b [4]int8) bool {
		va, vb := mkVec(a), mkVec(b)
		m := va.Clone()
		m.Merge(vb)
		if !va.LessEq(m) || !vb.LessEq(m) {
			return false
		}
		for i := range m {
			if m[i] != va[i] && m[i] != vb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorMergeCommutativeIdempotent(t *testing.T) {
	f := func(a, b [4]int8) bool {
		va, vb := mkVec(a), mkVec(b)
		m1 := va.Clone()
		m1.Merge(vb)
		m2 := vb.Clone()
		m2.Merge(va)
		if !m1.Equal(m2) {
			return false
		}
		m3 := m1.Clone()
		m3.Merge(m1)
		return m3.Equal(m1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorPartialOrder(t *testing.T) {
	f := func(a, b, c [4]int8) bool {
		va, vb, vc := mkVec(a), mkVec(b), mkVec(c)
		// reflexive
		if !va.LessEq(va) {
			return false
		}
		// antisymmetric
		if va.LessEq(vb) && vb.LessEq(va) && !va.Equal(vb) {
			return false
		}
		// transitive
		if va.LessEq(vb) && vb.LessEq(vc) && !va.LessEq(vc) {
			return false
		}
		// concurrency is symmetric and excludes order
		if va.Concurrent(vb) != vb.Concurrent(va) {
			return false
		}
		if va.Concurrent(vb) && (va.LessEq(vb) || vb.LessEq(va)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorMinIsGLB(t *testing.T) {
	f := func(a, b [4]int8) bool {
		va, vb := mkVec(a), mkVec(b)
		m := Min(va, vb)
		if !m.LessEq(va) || !m.LessEq(vb) {
			return false
		}
		for i := range m {
			if m[i] != va[i] && m[i] != vb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVector(2).Merge(NewVector(3))
}

func TestHLCSendMonotone(t *testing.T) {
	h := &HLC{}
	var prev HLCStamp
	phys := []int64{5, 5, 5, 3, 7, 7, 2}
	for _, p := range phys {
		s := h.Now(p)
		if !prev.Before(s) {
			t.Fatalf("HLC not monotone: %v then %v", prev, s)
		}
		prev = s
	}
}

func TestHLCObserveOrdersAfterRemote(t *testing.T) {
	f := func(physA, physB uint16, l uint8) bool {
		a, b := &HLC{}, &HLC{}
		sa := a.Now(int64(physA))
		for i := uint8(0); i < l%8; i++ {
			sa = a.Now(int64(physA))
		}
		sb := b.Observe(int64(physB), sa)
		// The receive stamp must be after the send stamp.
		return sa.Before(sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHLCCompare(t *testing.T) {
	a := HLCStamp{Wall: 1, Logical: 2}
	b := HLCStamp{Wall: 1, Logical: 3}
	c := HLCStamp{Wall: 2, Logical: 0}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Fatal("bad compare within wall")
	}
	if b.Compare(c) != -1 {
		t.Fatal("bad compare across wall")
	}
}

func TestHLCWallBoundedByMaxPhysical(t *testing.T) {
	// The HLC wall component never exceeds the largest physical time seen,
	// a standard HLC boundedness property.
	f := func(seq [8]uint8) bool {
		h := &HLC{}
		var maxPhys int64
		for _, p := range seq {
			phys := int64(p)
			if phys > maxPhys {
				maxPhys = phys
			}
			h.Now(phys)
			if h.Wall > maxPhys {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
