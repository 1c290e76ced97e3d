// Constraint-propagation search for legal serializations.
//
// The original checkers enumerated linear extensions of the dependency
// graph outright, which refutes (proves NO serialization exists) only by
// exhausting a factorial search — the reason certification was capped at
// 62 transactions and violator load histories at 24. The solver instead
// works DPLL-style over ordering literals "a before b":
//
//   - The known edges (program order, reads-from, real time) seed a
//     transitively closed partial order kept as per-txn bitsets.
//   - Each legality obligation becomes constraints. A read by t of the
//     initial value of obj demands every writer of obj after t (unit
//     edges). A read by t of v written by W demands, for every other
//     writer o of obj, the anti-dependency disjunction
//     (o → W) ∨ (t → o): o must not land between the read's writer and
//     the read.
//   - Unit propagation: a disjunct whose reverse is already implied is
//     dead; its sibling becomes a forced edge. Edge insertion closes the
//     order transitively and detects conflicts immediately.
//   - When propagation reaches a fixpoint with undecided constraints
//     left, the solver branches on the first one, exploring both
//     disjuncts; failed closure states are memoized so the search never
//     re-explores an ordering state it has already refuted.
//
// A satisfying assignment is a partial order in which every constraint
// holds, so ANY linear extension of it is a legal serialization — the
// witness is its deterministic smallest-index-first extension. The search
// is sound and complete with respect to the exhaustive enumeration the
// differential suite keeps as its oracle (checkExhaustive, test-only).
package history

import (
	"math/bits"
	"sort"

	"repro/internal/model"
)

// orderClosure is a transitively closed strict partial order over txn
// indices: succ[i] holds every j ordered after i, pred[i] every j before.
//
// A closure made with deferColumns (the session's models) may defer the
// successor column of a node: for y in lazy, succ[x] may lack y although
// x ∈ pred[y]. Pred rows are always exact, has reads a deferred node's
// pred row, and an edge's tail always takes its head's bit, so a succ row
// is empty exactly when its node has no successor. Once 64 columns wait,
// flush writes them in one pass.
type orderClosure struct {
	succ  []bitset
	pred  []bitset
	lazy  bitset // nil: every column is written eagerly
	nLazy int
}

// newOrderClosure closes g.preds transitively. topo must be a topological
// order of g (from graph.acyclic).
func newOrderClosure(g *graph, topo []int) *orderClosure {
	n := len(g.txns)
	c := &orderClosure{succ: make([]bitset, n), pred: make([]bitset, n)}
	for i := 0; i < n; i++ {
		c.succ[i] = newBitset(n)
		c.pred[i] = newBitset(n)
	}
	// Process in topological order: every direct predecessor's closure is
	// complete before it is folded in.
	for _, i := range topo {
		g.preds[i].forEach(func(j int) {
			c.pred[i].or(c.pred[j])
			c.pred[i].set(j)
		})
	}
	for i := 0; i < n; i++ {
		c.pred[i].forEach(func(j int) { c.succ[j].set(i) })
	}
	return c
}

func (c *orderClosure) clone() *orderClosure {
	out := &orderClosure{succ: make([]bitset, len(c.succ)), pred: make([]bitset, len(c.pred)), nLazy: c.nLazy}
	for i := range c.succ {
		out.succ[i] = c.succ[i].clone()
		out.pred[i] = c.pred[i].clone()
	}
	if c.lazy != nil {
		out.lazy = c.lazy.clone()
	}
	return out
}

func (c *orderClosure) copyFrom(o *orderClosure) {
	for i := range c.succ {
		c.succ[i].copyFrom(o.succ[i])
		c.pred[i].copyFrom(o.pred[i])
	}
	c.lazy.copyFrom(o.lazy)
	c.nLazy = o.nLazy
}

// deferColumns switches c to deferring successor columns.
func (c *orderClosure) deferColumns() {
	words := 0
	if len(c.succ) > 0 {
		words = len(c.succ[0])
	}
	c.lazy = make(bitset, words)
}

// has reports whether a is ordered strictly before b.
func (c *orderClosure) has(a, b int) bool {
	if c.nLazy > 0 && c.lazy.has(b) {
		return c.pred[b].has(a)
	}
	return c.succ[a].has(b)
}

// addNode appends an isolated node with row capacity words and returns
// its index. Used by the incremental session, whose node count grows as
// transactions commit (the batch path sizes the closure up front).
func (c *orderClosure) addNode(words int) int {
	c.succ = append(c.succ, make(bitset, words))
	c.pred = append(c.pred, make(bitset, words))
	if c.lazy != nil {
		c.lazy = c.lazy.grow(words)
	}
	return len(c.succ) - 1
}

// growWords widens every row to at least words words.
func (c *orderClosure) growWords(words int) {
	for i := range c.succ {
		c.succ[i] = c.succ[i].grow(words)
		c.pred[i] = c.pred[i].grow(words)
	}
	if c.lazy != nil {
		c.lazy = c.lazy.grow(words)
	}
}

// retire releases slot t for reuse (the streaming session's eviction). No
// live successor row can contain a retiring slot — an edge from a live
// transaction into the batch would cycle against the batch preceding
// everything live — so clearing the predecessor rows and zeroing t's own
// rows is the whole release.
func (c *orderClosure) retire(t int) {
	for x := range c.pred {
		c.pred[x].clear(t)
	}
	c.succ[t].reset()
	c.pred[t].reset()
	if c.nLazy > 0 && c.lazy.has(t) {
		c.lazy.clear(t)
		c.nLazy--
	}
}

// deferColumn marks b's successor column deferred, flushing once 64
// columns wait.
func (c *orderClosure) deferColumn(b int) {
	if c.lazy.has(b) {
		return
	}
	c.lazy.set(b)
	if c.nLazy++; c.nLazy == 64 {
		c.flush()
	}
}

// deferredAfter calls f for every deferred y with b ∈ pred(y) and
// a ∉ pred(y): the successors of b that succ[b] may not show.
func (c *orderClosure) deferredAfter(b, a int, f func(y int)) {
	if c.nLazy == 0 {
		return
	}
	c.lazy.forEach(func(y int) {
		if c.pred[y].has(b) && !c.pred[y].has(a) {
			f(y)
		}
	})
}

// flush writes every deferred successor column. For each word of
// deferred nodes it takes their pred rows 64 predecessors at a time and
// transposes that 64×64 block, so each predecessor's succ row takes all
// of its bits for the word in one OR.
func (c *orderClosure) flush() {
	if c.nLazy == 0 {
		return
	}
	var block [64]uint64
	for w, deferred := range c.lazy {
		if deferred == 0 {
			continue
		}
		for v := range c.lazy {
			var any uint64
			for m := deferred; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				block[j] = c.pred[w<<6+j][v]
				any |= block[j]
			}
			if any == 0 {
				continue
			}
			transpose64(&block)
			for k, row := range block {
				if row != 0 {
					c.succ[v<<6+k][w] |= row
				}
			}
			block = [64]uint64{}
		}
		c.lazy[w] = 0
	}
	c.nLazy = 0
}

// addEdge orders a strictly before b and re-closes transitively.
// It reports false on conflict (b is already ordered before a).
//
// Only rows that lack the result are visited (Italiano's rule): in a
// closed order x ≺ b already gives succ(x) ⊇ succ(b) ∪ {b}, and a ≺ y
// gives pred(y) ⊇ pred(a) ∪ {a}, so the successor side touches
// pred(a) ∖ pred(b) and the predecessor side the y ∈ succ(b) with
// a ∉ pred(y). Each phase reads the other side's rows before changing
// them: the successor side takes pred(b) before pred(b) gains pred(a).
func (c *orderClosure) addEdge(a, b int) bool {
	if a == b {
		return false
	}
	if c.has(a, b) {
		return true
	}
	if c.has(b, a) {
		return false
	}
	// Fast path for the incremental session's common shape: edges point at
	// a transaction with no successors yet (the one just appended), so the
	// closure update degenerates to single-bit sets instead of word-wise
	// unions over the whole row — or, deferring, to none at all.
	if c.succ[b].empty() {
		c.succ[a].set(b)
		if c.lazy == nil {
			c.pred[a].forEachAndNot(c.pred[b], func(x int) { c.succ[x].set(b) })
		}
		c.pred[b].or(c.pred[a])
		c.pred[b].set(a)
		if c.lazy != nil {
			c.deferColumn(b)
		}
		return true
	}
	if c.pred[a].empty() {
		setA := func(y int) { c.pred[y].set(a) }
		c.succ[b].forEachAndNot(c.succ[a], setA)
		c.deferredAfter(b, a, setA)
		c.succ[a].or(c.succ[b])
		c.succ[a].set(b)
		c.pred[b].set(a)
		return true
	}
	// Everything at or before a precedes everything at or after b.
	before, after := c.pred[a], c.succ[b]
	update := func(x int) {
		c.succ[x].or(after)
		c.succ[x].set(b)
	}
	update(a)
	before.forEachAndNot(c.pred[b], update)
	updateP := func(y int) {
		c.pred[y].or(before)
		c.pred[y].set(a)
	}
	updateP(b)
	after.forEach(func(y int) {
		if !c.pred[y].has(a) {
			updateP(y)
		}
	})
	c.deferredAfter(b, a, updateP)
	return true
}

// clause is the anti-dependency disjunction (a1 → b1) ∨ (a2 → b2).
type clause struct {
	a1, b1, a2, b2 int
}

// solver searches for an extension of the base order satisfying every
// legality clause of the transactions in checkSet.
type solver struct {
	order   *orderClosure
	clauses []clause
	// failed memoizes refuted closure states (packed succ bitsets), the
	// conflict-driven pruning that keeps refutation from re-deriving the
	// same dead ends through different branch orders.
	failed map[string]struct{}
	// unsat is set when constraint construction already proves the check
	// impossible (a transaction reading its own write: reads precede
	// writes, so no placement is ever legal).
	unsat bool
	// snap is search's entry snapshot, allocated on first use; a caller
	// running several searches over closures of one size hands it on.
	snap *orderClosure
}

// newSolver builds the clause set for the txns in checkSet (nil: all
// txns) over the given base closure. The closure is owned by the solver
// afterwards.
func newSolver(g *graph, base *orderClosure, checkSet bitset) *solver {
	s := &solver{order: base, failed: make(map[string]struct{})}
	for t := range g.txns {
		if checkSet != nil && !checkSet.has(t) {
			continue
		}
		rec := g.txns[t]
		for _, obj := range sortedObjects(rec.Reads) {
			val := rec.Reads[obj]
			if val == g.h.Initial(obj) {
				// Initial-value read: every writer of obj after t. Unit
				// edges, applied immediately.
				for _, o := range g.writersOf[obj] {
					if o == t {
						continue // own write: reads precede writes
					}
					if !s.order.addEdge(t, o) {
						s.unsat = true
						return s
					}
				}
				continue
			}
			w := g.writer[ov{obj, val}] // build validated existence
			if w == t {
				s.unsat = true // reads its own write: never legal
				return s
			}
			for _, o := range g.writersOf[obj] {
				if o == w || o == t {
					continue
				}
				if s.order.succ[o].has(w) || s.order.succ[t].has(o) {
					continue // already satisfied by the base order
				}
				s.clauses = append(s.clauses, clause{o, w, t, o})
			}
		}
	}
	return s
}

// propagate applies unit propagation to a fixpoint. It reports false on
// conflict (a clause with both disjuncts dead, or a forced edge closing a
// cycle).
func (s *solver) propagate() bool {
	for changed := true; changed; {
		changed = false
		for _, c := range s.clauses {
			if s.order.succ[c.a1].has(c.b1) || s.order.succ[c.a2].has(c.b2) {
				continue // satisfied
			}
			dead1 := s.order.succ[c.b1].has(c.a1)
			dead2 := s.order.succ[c.b2].has(c.a2)
			switch {
			case dead1 && dead2:
				return false
			case dead1:
				if !s.order.addEdge(c.a2, c.b2) {
					return false
				}
				changed = true
			case dead2:
				if !s.order.addEdge(c.a1, c.b1) {
					return false
				}
				changed = true
			}
		}
	}
	return true
}

// key packs the closure into a memoization key. The successor bitsets
// fully determine the solver state: clause status is derived from them.
func (s *solver) key() string {
	words := 0
	for _, row := range s.order.succ {
		words += len(row)
	}
	buf := make([]byte, 0, words*8)
	for _, row := range s.order.succ {
		for _, w := range row {
			buf = append(buf,
				byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
				byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
		}
	}
	return string(buf)
}

// newClauseSolver builds a solver over a pre-built clause set, for the
// incremental session, which constructs clauses itself as transactions
// commit. The closure is owned by the solver afterwards.
func newClauseSolver(order *orderClosure, clauses []clause) *solver {
	return &solver{order: order, clauses: clauses, failed: make(map[string]struct{})}
}

// solve runs the search and, on success, returns the deterministic
// smallest-index-first linear extension of the satisfying order.
func (s *solver) solve() ([]int, bool) {
	if s.unsat {
		return nil, false
	}
	if !s.run() {
		return nil, false
	}
	return extendClosure(s.order), true
}

// solveClosure runs the search and, on success, returns the satisfying
// partial order itself (for the session's retained model).
func (s *solver) solveClosure() (*orderClosure, bool) {
	if s.unsat || !s.run() {
		return nil, false
	}
	return s.order, true
}

// run reports whether some extension of s.order satisfies every clause,
// leaving the satisfying order in s.order.
func (s *solver) run() bool {
	return len(s.clauses) == 0 || s.search()
}

// search finds an extension of s.order satisfying every clause, or
// reports that none exists. It first runs a clone-free optimistic
// descent committing one disjunct per undecided clause; only when that
// descent dead-ends does it restore the single entry snapshot and run
// the complete branch-and-memoize search. The happy path — a satisfiable
// re-solve the greedy choices never trap — costs no per-node clones or
// memo keys at all.
func (s *solver) search() bool {
	if !s.propagate() {
		return false
	}
	if s.snap == nil {
		s.snap = s.order.clone()
	} else {
		s.snap.copyFrom(s.order)
	}
	if s.descend() {
		return true
	}
	s.order.copyFrom(s.snap)
	return s.searchFull()
}

// undecided returns the first clause neither of whose disjuncts the order
// holds; false when every clause is satisfied.
func (s *solver) undecided() (clause, bool) {
	for _, c := range s.clauses {
		if !s.order.succ[c.a1].has(c.b1) && !s.order.succ[c.a2].has(c.b2) {
			return c, true
		}
	}
	return clause{}, false
}

// descend greedily commits clauses in order without backtracking: the
// first disjunct, its sibling when the first edge cycles immediately.
// False means only that the greedy path dead-ended, not that the
// instance is unsatisfiable.
func (s *solver) descend() bool {
	for {
		if !s.propagate() {
			return false
		}
		c, open := s.undecided()
		if !open {
			return true
		}
		if !s.order.addEdge(c.a1, c.b1) && !s.order.addEdge(c.a2, c.b2) {
			return false
		}
	}
}

// searchFull branches on the first undecided clause, first disjunct
// first, memoizing refuted closure states.
func (s *solver) searchFull() bool {
	if !s.propagate() {
		return false
	}
	c, open := s.undecided()
	if !open {
		return true // every clause satisfied: the order is legal
	}
	key := s.key()
	if _, refuted := s.failed[key]; refuted {
		return false
	}
	saved := s.order.clone()
	if s.order.addEdge(c.a1, c.b1) && s.searchFull() {
		return true
	}
	s.order.copyFrom(saved)
	if s.order.addEdge(c.a2, c.b2) && s.searchFull() {
		return true
	}
	s.order.copyFrom(saved)
	s.failed[key] = struct{}{}
	return false
}

// extendClosure produces the smallest-index-first linear extension of a
// transitively closed partial order: Kahn's algorithm over the closure,
// with the unplaced-predecessor count per node and the ready nodes kept
// as a bitset whose lowest element is the next one placed.
func extendClosure(c *orderClosure) []int {
	c.flush()
	n := len(c.succ)
	order := make([]int, 0, n)
	if n == 0 {
		return order
	}
	ready := make(bitset, len(c.pred[0]))
	waiting := make([]int, n)
	for i := range waiting {
		if waiting[i] = c.pred[i].count(); waiting[i] == 0 {
			ready.set(i)
		}
	}
	for len(order) < n {
		i := ready.min()
		ready.clear(i)
		order = append(order, i)
		c.succ[i].forEach(func(j int) {
			if waiting[j]--; waiting[j] == 0 {
				ready.set(j)
			}
		})
	}
	return order
}

// sortedObjects returns the read-set object names in ascending order so
// clause construction (and with it branching and witnesses) is
// deterministic regardless of map iteration.
func sortedObjects(reads map[string]model.Value) []string {
	out := make([]string, 0, len(reads))
	for o := range reads {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}
