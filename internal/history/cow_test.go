package history

import (
	"fmt"
	"testing"
)

// overlayHarness drives one parent closure deferring its successor
// columns, a few overlays sharing it and one eager dense reference
// closure per overlay through the operations the session performs, in
// the session's order: the parent is re-closed first, every diverged
// overlay is caught up next, slots are retired overlay-first and reused
// zeroed. The reference of overlay i receives the union of the parent's
// edges and overlay i's own unit edges.
type overlayHarness struct {
	t      *testing.T
	rng    genRNG
	words  int
	parent *orderClosure
	ovs    []*cowClosure
	refs   []*orderClosure
	live   []int // live slots, oldest first
	free   []int
	op     string // the operation being checked, for failure messages
	// leafEdges counts parent edges into a successor-free node applied to
	// a diverged overlay; spared sums the override rows they left alone.
	leafEdges, spared int
}

func newOverlayHarness(t *testing.T, seed int64, overlays int) *overlayHarness {
	h := &overlayHarness{t: t, rng: genRNG(seed), words: 1, parent: &orderClosure{}}
	h.parent.deferColumns()
	for i := 0; i < overlays; i++ {
		h.ovs = append(h.ovs, newCowClosure(h.parent, false, h.words))
		h.refs = append(h.refs, &orderClosure{})
	}
	return h
}

// addNode takes a slot the way Session.addSlot does: a freed one (rows
// already zero everywhere), or a fresh node in every closure after
// widening all rows when the slot capacity is exhausted.
func (h *overlayHarness) addNode() int {
	if n := len(h.free); n > 0 {
		t := h.free[n-1]
		h.free = h.free[:n-1]
		h.live = append(h.live, t)
		return t
	}
	if len(h.parent.succ) >= h.words*64 {
		h.words *= 2
		h.parent.growWords(h.words)
		for i := range h.ovs {
			h.ovs[i].growWords(h.words)
			h.refs[i].growWords(h.words)
		}
	}
	t := h.parent.addNode(h.words)
	for _, ref := range h.refs {
		ref.addNode(h.words)
	}
	h.live = append(h.live, t)
	return t
}

// parentEdge adds a global edge. A cycle in the parent or against any
// overlay seals a real session, so the harness checks that every overlay
// reports exactly its reference's conflict and then leaves the edge out.
func (h *overlayHarness) parentEdge(a, b int) bool {
	h.op = fmt.Sprintf("parent edge %d→%d", a, b)
	if a == b || h.parent.has(b, a) {
		return false
	}
	conflict := false
	for i, ov := range h.ovs {
		want := h.refs[i].succ[b].has(a)
		if got := ov.diverged() && ov.has(b, a); got != want {
			h.t.Fatalf("%s: overlay %d reports conflict=%v, reference %v", h.op, i, got, want)
		}
		conflict = conflict || want
	}
	if conflict {
		return false
	}
	if !h.parent.addEdge(a, b) {
		h.t.Fatalf("%s: parent refused an edge it does not contradict", h.op)
	}
	for i, ov := range h.ovs {
		if ov.diverged() {
			// The visit rule, as a count: into a node with no successors
			// whose column waits, the catch-up may look at a's successor
			// row and b's predecessor row, nothing else; once a flush has
			// written the column, at the overridden successor rows of
			// {a} ∪ pred(a) and at b's predecessor row.
			leaf, allowed, was := h.refs[i].succ[b].empty(), 1, ov.examined
			if !h.parent.lazy.has(b) {
				ov.predRow(a).forEachAnd(ov.osucc, func(int) { allowed++ })
			}
			if ov.osucc.has(a) {
				allowed++
			}
			ov.applyParentEdge(a, b)
			if leaf {
				h.leafEdges++
				h.spared += ov.rows - (ov.examined - was)
				if ov.examined-was > allowed {
					h.t.Fatalf("%s: overlay %d examined %d rows, the visit rule allows %d",
						h.op, i, ov.examined-was, allowed)
				}
			}
		}
		if !h.refs[i].addEdge(a, b) {
			h.t.Fatalf("%s: reference %d refused", h.op, i)
		}
	}
	return true
}

// unitEdge adds one overlay's own forced edge; overlay and reference must
// accept or refuse it together.
func (h *overlayHarness) unitEdge(i, a, b int) {
	h.op = fmt.Sprintf("overlay %d unit edge %d→%d", i, a, b)
	got, want := h.ovs[i].addEdge(a, b), h.refs[i].addEdge(a, b)
	if got != want {
		h.t.Fatalf("%s: overlay accepted=%v, reference accepted=%v", h.op, got, want)
	}
}

// retireOldest retires the k oldest live slots as one batch, the way
// retireBatch does: the members must first precede every transaction
// staying live in the parent (members may stay mutually unordered), then
// each slot is dropped from the overlays, cleared out of the dense
// closures and freed.
func (h *overlayHarness) retireOldest(k int) {
	if k >= len(h.live) {
		return
	}
	for _, m := range h.live[:k] {
		for _, x := range h.live[k:] {
			if !h.parent.has(m, x) && !h.parentEdge(m, x) {
				return // some order has x before m: the batch is not retirable
			}
			h.check()
		}
	}
	for _, m := range h.live[:k] {
		h.op = fmt.Sprintf("retire %d", m)
		for i, ov := range h.ovs {
			ov.retire(m)
			h.refs[i].retire(m)
		}
		h.parent.retire(m)
		h.free = append(h.free, m)
	}
	h.live = append(h.live[:0], h.live[k:]...)
}

// check compares every effective row of every overlay, free slots
// included, with its reference — a succ row may lack only the parent's
// deferred columns, whose pred rows stay exact — and the overridden sets
// with the rows they index.
func (h *overlayHarness) check() {
	lazy := h.parent.lazy
	for i, ov := range h.ovs {
		if n := ov.osucc.count() + ov.opred.count(); n != ov.rows {
			h.t.Fatalf("after %s: overlay %d counts %d override rows, its sets hold %d", h.op, i, ov.rows, n)
		}
		for x := range ov.dsucc {
			if (ov.dsucc[x] != nil) != ov.osucc.has(x) || (ov.dpred[x] != nil) != ov.opred.has(x) {
				h.t.Fatalf("after %s: overlay %d slot %d: overridden sets and rows disagree", h.op, i, x)
			}
		}
		for x := range h.parent.succ {
			if got, want := ov.succRow(x), h.refs[i].succ[x]; !sameBitsBut(got, want, lazy) {
				h.t.Fatalf("after %s: overlay %d succ row %d = %v, reference %v, deferred %v",
					h.op, i, x, members(got), members(want), members(lazy))
			}
			if !sameBits(ov.predRow(x), h.refs[i].pred[x]) {
				h.t.Fatalf("after %s: overlay %d pred row %d = %v, reference %v",
					h.op, i, x, members(ov.predRow(x)), members(h.refs[i].pred[x]))
			}
		}
	}
}

// checkMaterialized compares the dense copies the solver would receive.
func (h *overlayHarness) checkMaterialized() {
	for i, ov := range h.ovs {
		m := ov.materialize()
		for x := range h.parent.succ {
			if !sameBits(m.succ[x], h.refs[i].succ[x]) || !sameBits(m.pred[x], h.refs[i].pred[x]) {
				h.t.Fatalf("after %s: overlay %d materializes row %d differently from its reference", h.op, i, x)
			}
		}
		if len(m.succ) > 0 {
			m.succ[0].set(0) // the copy is the solver's to mutate
			h.check()
		}
	}
}

// sameBitsBut reports whether got holds exactly want's members, except
// that it may lack those in but.
func sameBitsBut(got, want, but bitset) bool {
	if len(got) != len(want) {
		return false
	}
	for w := range want {
		if got[w]&^want[w] != 0 || want[w]&^got[w]&^but[w] != 0 {
			return false
		}
	}
	return true
}

func sameBits(a, b bitset) bool {
	return len(a) == len(b) && a.containsAll(b) && b.containsAll(a)
}

func members(b bitset) []int {
	var out []int
	b.forEach(func(i int) { out = append(out, i) })
	return out
}

// pick returns a random live slot, biased to the newest few so that
// edges mostly join recent transactions, as a session's do.
func (h *overlayHarness) pick() int {
	n := len(h.live)
	if h.rng.next(3) > 0 && n > 8 {
		return h.live[n-1-h.rng.next(8)]
	}
	return h.live[h.rng.next(n)]
}

// TestOverlayMatchesDenseClosure is the overlay's differential contract:
// over seeded random interleavings of parent edges, overlay unit edges,
// node growth past 64 and 128 slots, batch retirement with slot reuse and
// materialization, every overlay's effective rows equal — after every
// single operation — a dense closure that received the same edges, and
// conflicts surface on the same operation.
func TestOverlayMatchesDenseClosure(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		h := newOverlayHarness(t, seed*7919, 2+int(seed%3))
		grown, retired, refused := 0, 0, 0
		for step := 0; step < 700; step++ {
			switch r := h.rng.next(20); {
			case r < 6 || len(h.live) < 4:
				// A new transaction: program-order and reads-from style edges
				// into a node that has no successors yet.
				b := h.addNode()
				grown = max(grown, len(h.parent.succ))
				h.check()
				for k := h.rng.next(3); k >= 0 && len(h.live) > 1; k-- {
					if a := h.pick(); a != b {
						h.parentEdge(a, b)
						h.check()
					}
				}
			case r < 10:
				a, b := h.pick(), h.pick()
				if a > b && h.rng.next(4) > 0 {
					a, b = b, a // mostly older before newer; sometimes against the grain
				}
				if !h.parentEdge(a, b) {
					refused++
				}
			case r < 17:
				a, b := h.pick(), h.pick()
				if a > b && h.rng.next(4) > 0 {
					a, b = b, a
				}
				h.unitEdge(h.rng.next(len(h.ovs)), a, b)
			case r < 18 && len(h.live) > 40:
				before := len(h.free)
				h.retireOldest(1 + h.rng.next(3))
				retired += len(h.free) - before
			default:
				h.checkMaterialized()
			}
			h.check()
		}
		if grown <= 128 || retired == 0 || refused == 0 || h.leafEdges < 100 || h.spared < h.leafEdges {
			t.Fatalf("seed %d: %d slots, %d retired, %d refused edges, %d leaf edges sparing %d rows: the interleaving lost its teeth",
				seed, grown, retired, refused, h.leafEdges, h.spared)
		}
	}
}

// FuzzOverlay drives the overlay harness from bytes and holds every
// overlay to its dense reference after each operation. The first byte
// sets the overlay count (1–4); then each op byte is followed by its
// arguments: a new node takes a count of parent edges into it and a node
// byte for each, a parent edge two node bytes, a unit edge an overlay
// byte and two node bytes, a retirement a batch size; flush and
// materialize take none. A node byte picks among the live slots, oldest
// first.
func FuzzOverlay(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 0, 0, 2, 0, 1, 3, 0, 0, 1, 4, 1, 1, 0, 7, 6})
	grow := []byte{3}
	for k := byte(0); k < 150; k++ {
		grow = append(grow, 0, 2, k, k/2, 3, k%3, k, k/3)
		if k%16 == 15 {
			grow = append(grow, 5, 2, 6, 7)
		}
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := newOverlayHarness(t, 1, 1+int(data[0])%4)
		data = data[1:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		node := func() int { return h.live[next()%len(h.live)] }
		for len(data) > 0 {
			switch op := next() % 8; {
			case op < 2 || len(h.live) < 2:
				if len(h.live) >= 300 {
					break
				}
				b := h.addNode()
				h.check()
				for k := next() % 3; k >= 0 && len(h.live) > 1; k-- {
					if a := node(); a != b {
						h.parentEdge(a, b)
						h.check()
					}
				}
			case op == 2:
				h.parentEdge(node(), node())
			case op < 5:
				i := next() % len(h.ovs)
				h.unitEdge(i, node(), node())
			case op == 5:
				h.retireOldest(1 + next()%3)
			case op == 6:
				h.op = "flush"
				h.parent.flush()
			default:
				h.checkMaterialized()
			}
			h.check()
		}
	})
}
