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
//   - retiring slot t clears bit t in the override rows of succ(t) only.
//
// writeThrough marks the aliased total-order state, whose unit edges
// ARE global facts: it delegates straight to the parent.
package history

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
	// examined counts the rows insert looked at (the overlay differential
	// test asserts the visit rule with it).
	examined int
}

// newCowClosure returns an empty overlay over parent sized for rows of
// the given word capacity (growWords keeps it in step with the parent).
func newCowClosure(parent *orderClosure, writeThrough bool, words int) *cowClosure {
	c := &cowClosure{parent: parent, writeThrough: writeThrough}
	c.growWords(words)
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
func (c *cowClosure) has(a, b int) bool { return c.succRow(a).has(b) }

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
	if c.succRow(a).has(b) {
		return true
	}
	if c.succRow(b).has(a) {
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
// would be the conflict case) and a is not in {b} ∪ succ(b).
//
// viaParent says the parent already holds a→b and is closed. Its pass
// updated the parent row of every x in {a} ∪ pred(a) with b and the
// PARENT's succ(b) — and an un-overridden x preceding a here precedes it
// in the parent too — so while succ(b) is not overridden the un-overridden
// rows are already right and only overridden ones are visited; likewise
// on the predecessor side while pred(a) is not overridden.
func (c *cowClosure) insert(a, b int, viaParent bool) {
	after, before := c.succRow(b), c.predRow(a)
	c.spread(c.dsucc, c.osucc, c.parent.succ, a, before, b, after, viaParent && !c.osucc.has(b))
	c.spread(c.dpred, c.opred, c.parent.pred, b, after, a, before, viaParent && !c.opred.has(a))
}

// spread adds bit and the set add to one side's row of x and of every
// member of region — only the overridden ones when overriddenOnly —
// starting an override (a private copy of the parent's row) where an
// un-overridden row lacks them. An empty add (b is the node just
// appended) leaves single-bit sets.
func (c *cowClosure) spread(drows []bitset, overridden bitset, prows []bitset,
	x int, region bitset, bit int, add bitset, overriddenOnly bool) {
	bare := add.empty()
	upd := func(x int) {
		c.examined++
		row := drows[x]
		if row == nil {
			prow := prows[x]
			if prow.has(bit) && (bare || prow.containsAll(add)) {
				return
			}
			row = prow.clone()
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

// materialize builds a dense closure equal to the effective order, for
// the solver (which owns and mutates its input).
func (c *cowClosure) materialize() *orderClosure {
	out := c.parent.clone()
	c.osucc.forEach(func(x int) { out.succ[x] = c.dsucc[x].clone() })
	c.opred.forEach(func(x int) { out.pred[x] = c.dpred[x].clone() })
	return out
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
// override pred rows holding bit t are exactly those of t's effective
// successors, and t's own override rows go. No override succ row of a
// transaction staying live can contain t — an edge x→t would contradict
// t preceding every live transaction, the retirement precondition.
func (c *cowClosure) retire(t int) {
	c.succRow(t).forEachAnd(c.opred, func(y int) { c.dpred[y].clear(t) })
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
