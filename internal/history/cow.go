// Copy-on-write closure overlays.
//
// The incremental session keeps one serialization state per reading
// client at the causal level, and every state's forced order is a
// superset of the single global base order (program order, reads-from,
// real time). A cowClosure SHARES that global closure and keeps only the
// rows a state's own unit edges have diverged on, indexed by slot:
//
//   - effective succ/pred row of x = the override row when one exists,
//     else the parent's row (an override row is always a superset of the
//     parent's); one bitset per side records which slots are overridden,
//     so "the overridden rows among S" is a word-wise AND, never a walk;
//   - a state with no overrides costs O(1) per global edge: its rows ARE
//     the parent's, which the parent's own closure pass already updated;
//   - when the parent gains a→b, only override rows of {a} ∪ pred(a) and
//     of {b} ∪ succ(b) owe the update. An un-overridden row there is up
//     to date unless succ(b) (resp. pred(a)) is itself overridden — only
//     then is every row of the region examined and copied on demand;
//   - retiring slot t clears bit t in the override rows of succ(t) only;
//   - overlays defer the parent's deferred successor columns too (any
//     succ row may lack one; has reads its pred row), so an edge into a
//     node with no successors writes only its tail's row, and the
//     parent's flush writes the columns into the overridden rows first.
//     An un-overridden row holds exactly the parent's relation.
//
// writeThrough marks the aliased total-order state, whose unit edges
// ARE global facts: it delegates straight to the parent.
package history

import "math/bits"

// cowClosure is a transitively closed partial order represented as
// slot-indexed row overrides over a shared parent closure.
type cowClosure struct {
	parent       *orderClosure
	writeThrough bool
	// dsucc[x] / dpred[x] is x's override row, nil while x reads the
	// parent's; osucc / opred hold exactly the slots with a non-nil row,
	// and rows counts them.
	dsucc, dpred []bitset
	osucc, opred bitset
	rows         int
	// region is insert's scratch row: b's successors, deferred ones too.
	region bitset
	// examined counts the rows insert looked at (the overlay differential
	// test asserts the visit rule with it).
	examined int
}

// newCowClosure returns an empty overlay over parent sized for rows of
// the given word capacity (growWords keeps it in step with the parent).
func newCowClosure(parent *orderClosure, writeThrough bool, words int) *cowClosure {
	c := &cowClosure{parent: parent, writeThrough: writeThrough}
	c.growWords(words)
	if !writeThrough {
		parent.overlays = append(parent.overlays, c)
	}
	return c
}

// succRow returns the effective successor row of x (read-only).
func (c *cowClosure) succRow(x int) bitset {
	if c.osucc.has(x) {
		return c.dsucc[x]
	}
	return c.parent.succ[x]
}

// predRow returns the effective predecessor row of x (read-only).
func (c *cowClosure) predRow(x int) bitset {
	if c.opred.has(x) {
		return c.dpred[x]
	}
	return c.parent.pred[x]
}

// has reports whether a is ordered strictly before b.
func (c *cowClosure) has(a, b int) bool {
	if c.parent.nLazy > 0 && c.parent.lazy.has(b) {
		return c.predRow(b).has(a)
	}
	return c.succRow(a).has(b)
}

// diverged reports whether the overlay differs from its parent.
func (c *cowClosure) diverged() bool { return c.rows > 0 }

// addEdge orders a strictly before b and re-closes transitively,
// copy-on-writing every row the insertion touches. It reports false on
// conflict (b already ordered before a).
func (c *cowClosure) addEdge(a, b int) bool {
	if c.writeThrough {
		return c.parent.addEdge(a, b)
	}
	if a == b {
		return false
	}
	if c.has(a, b) {
		return true
	}
	if c.has(b, a) {
		return false
	}
	c.insert(a, b, false)
	return true
}

// applyParentEdge re-establishes the overlay's transitive closure after
// the parent gained edge a→b (and was itself re-closed). An overlay with
// no overrides needs nothing: its effective rows ARE the parent's.
func (c *cowClosure) applyParentEdge(a, b int) {
	if !c.writeThrough && c.rows > 0 {
		c.insert(a, b, true)
	}
}

// insert makes everything at or before a precede everything at or after
// b over the effective rows. The rows iterated (succ of b, pred of a) are
// never mutated by the respective phase: b is not in {a} ∪ pred(a) (that
// would be the conflict case) and a is not in {b} ∪ succ(b). b's
// deferred successors, which its row may lack, join a copy of it.
//
// viaParent says the parent already holds a→b and is closed. Its pass
// updated the parent row of every x in {a} ∪ pred(a) with b and the
// PARENT's succ(b) — and an un-overridden x preceding a here precedes it
// in the parent too — so while succ(b) is not overridden the un-overridden
// rows are already right and only overridden ones are visited; likewise
// on the predecessor side while pred(a) is not overridden. Into a node
// with no successors whose column the parent defers, of the rows before
// b only a's takes b now; the flush writes the others.
func (c *cowClosure) insert(a, b int, viaParent bool) {
	after, before, lazy := c.succRow(b), c.predRow(a), c.parent.nLazy > 0
	ancestors := before
	switch {
	case viaParent && lazy && c.parent.lazy.has(b) && after.empty():
		ancestors = nil
	case lazy:
		c.region = append(c.region[:0], after...)
		c.parent.lazy.forEach(func(y int) {
			if c.predRow(y).has(b) {
				c.region.set(y)
			}
		})
		after = c.region
	}
	c.spread(true, a, ancestors, b, after, viaParent && !c.osucc.has(b))
	c.spread(false, b, after, a, before, viaParent && !c.opred.has(a))
}

// spread adds bit and the set add to one side's row of x and of every
// member of region — only the overridden ones when overriddenOnly —
// starting an override (a private copy of the parent's row) unless the
// parent already orders the member against them. An empty add (b is the
// node just appended) leaves single-bit sets.
func (c *cowClosure) spread(succSide bool, x int, region bitset, bit int, add bitset, overriddenOnly bool) {
	drows, overridden, prows := c.dpred, c.opred, c.parent.pred
	if succSide {
		drows, overridden, prows = c.dsucc, c.osucc, c.parent.succ
	}
	bare := add.empty()
	upd := func(x int) {
		c.examined++
		row := drows[x]
		if row == nil {
			if c.parentCovers(succSide, x, bit, add) {
				return
			}
			row = prows[x].clone()
			drows[x] = row
			overridden.set(x)
			c.rows++
		}
		if !bare {
			row.or(add)
		}
		row.set(bit)
	}
	if overriddenOnly {
		if overridden.has(x) {
			upd(x)
		}
		region.forEachAnd(overridden, upd)
	} else {
		upd(x)
		region.forEach(upd)
	}
}

// parentCovers reports whether the parent already orders x before (on
// the successor side) or after bit and every member of add, reading a
// deferred column its succ row lacks through that column's pred row.
func (c *cowClosure) parentCovers(succSide bool, x, bit int, add bitset) bool {
	p := c.parent
	if !succSide {
		return p.pred[x].has(bit) && p.pred[x].containsAll(add)
	}
	for w, want := range add {
		for m := want &^ p.succ[x][w]; m != 0; m &= m - 1 {
			if y := w<<6 + bits.TrailingZeros64(m); p.nLazy == 0 || !p.lazy.has(y) || !p.pred[y].has(x) {
				return false
			}
		}
	}
	return p.has(x, bit)
}

// flush writes the parent's deferred columns into the override succ rows
// (the parent's flush calls it before writing its own): for each word of
// deferred nodes it transposes their effective pred rows, kept to the
// overridden slots, one 64×64 block at a time.
func (c *cowClosure) flush() {
	var rows [64]bitset
	for w, deferred := range c.parent.lazy {
		for m := deferred; m != 0; m &= m - 1 {
			rows[bits.TrailingZeros64(m)] = c.predRow(w<<6 + bits.TrailingZeros64(m))
		}
		for v, keep := range c.osucc {
			if keep != 0 && deferred != 0 {
				orTransposed(c.dsucc, rows[:], w, v, deferred, keep)
			}
		}
	}
}

// materialize builds a dense closure equal to the effective order, for
// the solver (which owns and mutates its input).
func (c *cowClosure) materialize() *orderClosure {
	out := c.parent.eagerClone()
	c.osucc.forEach(func(x int) { out.succ[x] = c.dsucc[x].clone() })
	c.opred.forEach(func(x int) { out.pred[x] = c.dpred[x].clone() })
	return out
}

// addUnits adds the overlay's own edges to dst, an eager closure holding
// the flushed parent's order: every bit of an override succ row that dst
// lacks. It reports false when they cycle against dst.
func (c *cowClosure) addUnits(dst *orderClosure) bool {
	ok := true
	c.osucc.forEach(func(x int) {
		row, have := c.dsucc[x], dst.succ[x]
		for v := range row {
			for d := row[v] &^ have[v]; ok && d != 0; d = row[v] &^ have[v] {
				ok = dst.addEdge(x, v<<6+bits.TrailingZeros64(d))
			}
		}
	})
	return ok
}

// growWords widens every override row, the overridden sets and the row
// headers to a capacity of words*64 slots (the parent grows separately).
func (c *cowClosure) growWords(words int) {
	c.osucc.forEach(func(x int) { c.dsucc[x] = c.dsucc[x].grow(words) })
	c.opred.forEach(func(x int) { c.dpred[x] = c.dpred[x].grow(words) })
	c.osucc, c.opred = c.osucc.grow(words), c.opred.grow(words)
	if n := words * 64; n > len(c.dsucc) {
		c.dsucc = append(c.dsucc, make([]bitset, n-len(c.dsucc))...)
		c.dpred = append(c.dpred, make([]bitset, n-len(c.dpred))...)
	}
}

// retire drops slot t from the overlay, which must still see t's parent
// rows (the session retires overlays before it clears the parent): the
// override pred rows holding bit t are those of t's effective successors,
// deferred ones included, and t's own override rows go. No override succ
// row of a transaction staying live can contain t — an edge x→t would
// contradict t preceding every live transaction, the retirement
// precondition.
func (c *cowClosure) retire(t int) {
	clearT := func(y int) { c.dpred[y].clear(t) }
	c.succRow(t).forEachAnd(c.opred, clearT)
	c.parent.lazy.forEachAnd(c.opred, clearT)
	if c.osucc.has(t) {
		c.dsucc[t] = nil
		c.osucc.clear(t)
		c.rows--
	}
	if c.opred.has(t) {
		c.dpred[t] = nil
		c.opred.clear(t)
		c.rows--
	}
}
