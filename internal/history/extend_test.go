package history

import (
	"slices"
	"testing"
)

// TestExtendClosureMatchesScan: the Kahn extension must emit exactly the
// order of the index-0-rescanning loop it replaces — witnesses are pinned
// by digest — on random closures with isolated nodes, edges against the
// index order and row widths past one word.
func TestExtendClosureMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 240; seed++ {
		rng := genRNG(seed * 104729)
		n := 1 + rng.next(200)
		c := &orderClosure{}
		for i := 0; i < n; i++ {
			c.addNode((n + 63) / 64)
		}
		for k := rng.next(3 * n); k > 0; k-- {
			a, b := rng.next(n), rng.next(n)
			if a > b && rng.next(3) > 0 {
				a, b = b, a
			}
			c.addEdge(a, b) // a conflicting edge is refused and leaves c closed
		}
		got, want := extendClosure(c), extendClosureScan(c)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d (n=%d): Kahn extension %v, scan %v", seed, n, got, want)
		}
	}
	if got := extendClosure(&orderClosure{}); len(got) != 0 {
		t.Fatalf("empty closure extends to %v", got)
	}
}

// extendClosureScan is the loop extendClosure replaced (O(n² · words):
// every placement rescans from index 0), kept as the reference order.
func extendClosureScan(c *orderClosure) []int {
	n := len(c.succ)
	var placed bitset
	if n > 0 {
		placed = make(bitset, len(c.pred[0]))
	}
	order := make([]int, 0, n)
	for len(order) < n {
		for i := 0; i < n; i++ {
			if !placed.has(i) && placed.containsAll(c.pred[i]) {
				placed.set(i)
				order = append(order, i)
				break
			}
		}
	}
	return order
}
