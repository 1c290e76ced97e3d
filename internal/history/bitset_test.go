package history

import "testing"

// TestBitsetCrosses64 pins the regression the type exists to fix: indices
// past 63 must land in later words, not silently wrap into the first.
func TestBitsetCrosses64(t *testing.T) {
	b := newBitset(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.has(i) {
			t.Fatalf("fresh bitset has %d", i)
		}
		b.set(i)
		if !b.has(i) {
			t.Fatalf("set(%d) not visible", i)
		}
	}
	// Index 64 must not alias index 0.
	b2 := newBitset(200)
	b2.set(64)
	if b2.has(0) {
		t.Fatal("set(64) aliased bit 0: the uint64 overflow bug")
	}
	if b2.count() != 1 {
		t.Fatalf("count = %d, want 1", b2.count())
	}
}

func TestBitsetCount(t *testing.T) {
	b := newBitset(130)
	want := 0
	for i := 0; i < 130; i += 3 {
		b.set(i)
		want++
	}
	if b.count() != want {
		t.Fatalf("count = %d, want %d", b.count(), want)
	}
	b.set(0) // re-setting must not double-count
	if b.count() != want {
		t.Fatalf("count after re-set = %d, want %d", b.count(), want)
	}
}

func TestBitsetOrForEachOrder(t *testing.T) {
	a, b := newBitset(128), newBitset(128)
	a.set(3)
	a.set(70)
	b.set(70)
	b.set(127)
	a.or(b)
	var got []int
	a.forEach(func(i int) { got = append(got, i) })
	want := []int{3, 70, 127}
	if len(got) != len(want) {
		t.Fatalf("forEach yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forEach yielded %v, want ascending %v", got, want)
		}
	}
}

func TestBitsetCloneIndependence(t *testing.T) {
	a := newBitset(96)
	a.set(95)
	c := a.clone()
	if !c.has(95) || c.count() != 1 {
		t.Fatal("clone not equal to source")
	}
	c.set(1)
	if a.has(1) {
		t.Fatal("clone shares storage with source")
	}
	a.copyFrom(c)
	if !a.has(1) || a.count() != c.count() {
		t.Fatal("copyFrom did not synchronize")
	}
}

func TestBitsetContainsAll(t *testing.T) {
	a, b := newBitset(130), newBitset(130)
	a.set(5)
	a.set(129)
	b.set(129)
	if !a.containsAll(b) {
		t.Fatal("superset not recognized")
	}
	if !a.containsAll(newBitset(130)) {
		t.Fatal("empty set not contained")
	}
	b.set(64)
	if a.containsAll(b) {
		t.Fatal("missing element 64 not detected")
	}
}

// TestTranspose64 checks the in-place bit-matrix transpose against the
// definition on random and single-bit matrices.
func TestTranspose64(t *testing.T) {
	rng := genRNG(64)
	for trial := 0; trial < 200; trial++ {
		var a [64]uint64
		if trial < 64 {
			a[trial] = 1 << uint(63-trial/2)
		} else {
			for j := range a {
				a[j] = uint64(rng.next(1<<30))<<34 ^ uint64(rng.next(1<<30))<<4 ^ uint64(rng.next(16))
			}
		}
		in := a
		transpose64(&a)
		for j := 0; j < 64; j++ {
			for k := 0; k < 64; k++ {
				if in[j]>>uint(k)&1 != a[k]>>uint(j)&1 {
					t.Fatalf("trial %d: bit %d of row %d did not move to bit %d of row %d", trial, k, j, j, k)
				}
			}
		}
	}
}
