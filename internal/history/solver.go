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
	"sort"

	"repro/internal/model"
)

// orderClosure is a transitively closed strict partial order over txn
// indices: succ[i] holds every j ordered after i, pred[i] every j before.
type orderClosure struct {
	succ []bitset
	pred []bitset
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
	out := &orderClosure{succ: make([]bitset, len(c.succ)), pred: make([]bitset, len(c.pred))}
	for i := range c.succ {
		out.succ[i] = c.succ[i].clone()
		out.pred[i] = c.pred[i].clone()
	}
	return out
}

func (c *orderClosure) copyFrom(o *orderClosure) {
	for i := range c.succ {
		c.succ[i].copyFrom(o.succ[i])
		c.pred[i].copyFrom(o.pred[i])
	}
}

// addNode appends an isolated node with row capacity words and returns
// its index. Used by the incremental session, whose node count grows as
// transactions commit (the batch path sizes the closure up front).
func (c *orderClosure) addNode(words int) int {
	c.succ = append(c.succ, make(bitset, words))
	c.pred = append(c.pred, make(bitset, words))
	return len(c.succ) - 1
}

// growWords widens every row to at least words words.
func (c *orderClosure) growWords(words int) {
	for i := range c.succ {
		c.succ[i] = c.succ[i].grow(words)
		c.pred[i] = c.pred[i].grow(words)
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
}

// addEdge orders a strictly before b and re-closes transitively.
// It reports false on conflict (b is already ordered before a).
func (c *orderClosure) addEdge(a, b int) bool {
	if a == b {
		return false
	}
	if c.succ[a].has(b) {
		return true
	}
	if c.succ[b].has(a) {
		return false
	}
	// Fast path for the incremental session's common shape: edges point at
	// a transaction with no successors yet (the one just appended), so the
	// closure update degenerates to single-bit sets instead of word-wise
	// unions over the whole row.
	if c.succ[b].empty() {
		c.succ[a].set(b)
		c.pred[a].forEach(func(x int) { c.succ[x].set(b) })
		c.pred[b].or(c.pred[a])
		c.pred[b].set(a)
		return true
	}
	if c.pred[a].empty() {
		c.succ[a].or(c.succ[b])
		c.succ[a].set(b)
		c.pred[b].set(a)
		c.succ[b].forEach(func(y int) { c.pred[y].set(a) })
		return true
	}
	// Everything at or before a precedes everything at or after b.
	after := c.succ[b]
	update := func(x int) {
		c.succ[x].or(after)
		c.succ[x].set(b)
	}
	update(a)
	c.pred[a].forEach(update)
	before := c.pred[a]
	updateP := func(y int) {
		c.pred[y].or(before)
		c.pred[y].set(a)
	}
	updateP(b)
	after.forEach(updateP)
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
	// bigHint is an optional previously satisfying order (the session's
	// last model): at each branch the search tries the disjunct that
	// order satisfied first. A model invalidated by one new constraint is
	// usually one flip away from a satisfying order, so the warm-started
	// descent commits the surviving guesses without backtracking instead
	// of re-deriving them clause by clause. Soundness and completeness
	// are untouched — the hint only permutes branch order.
	bigHint *orderClosure
	// hint is bigHint projected to the sub-solver's dense index space.
	hint []bitset
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
// commit. The closure is owned by the solver afterwards; hint, when
// non-nil, is a previously satisfying order in the same index space used
// to warm-start branch polarity (see solver.bigHint).
func newClauseSolver(order *orderClosure, clauses []clause, hint *orderClosure) *solver {
	return &solver{order: order, clauses: clauses, failed: make(map[string]struct{}), bigHint: hint}
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

// run solves the clause set by projecting the search onto the
// clause-involved transactions and replaying the winning disjunct edges
// onto the full closure. The projection is exact: every test the search
// performs — clause satisfied/dead, addEdge cycle detection — queries
// ordering bits between clause endpoints only, and under a transitively
// closed order a new involved pair x → y appears after addEdge(a, b)
// exactly when x ⪯ a and b ⪯ y, which is again an involved-pair
// predicate. So the restricted relation evolves autonomously and the
// branch-and-propagate search runs unchanged on a K-node closure, with
// per-node clone and memoization cost O(K²) instead of O(n²) — the
// difference between streaming certification staying incremental at
// thousands of committed transactions and grinding on whole-history
// clones whenever a handful of recent commits are mutually undecided.
func (s *solver) run() bool {
	if len(s.clauses) == 0 {
		return true
	}
	// Map the clause-involved transactions to a dense [0, K) index space,
	// in first-appearance order so branching stays deterministic.
	toSmall := make(map[int]int)
	var nodes []int
	add := func(x int) {
		if _, ok := toSmall[x]; !ok {
			toSmall[x] = len(nodes)
			nodes = append(nodes, x)
		}
	}
	for _, c := range s.clauses {
		add(c.a1)
		add(c.b1)
		add(c.a2)
		add(c.b2)
	}
	k := len(nodes)
	small := &orderClosure{succ: make([]bitset, k), pred: make([]bitset, k)}
	for i := 0; i < k; i++ {
		small.succ[i] = newBitset(k)
		small.pred[i] = newBitset(k)
	}
	for i, bi := range nodes {
		for j, bj := range nodes {
			if i != j && s.order.succ[bi].has(bj) {
				small.succ[i].set(j)
				small.pred[j].set(i)
			}
		}
	}
	sc := make([]clause, len(s.clauses))
	for i, c := range s.clauses {
		sc[i] = clause{toSmall[c.a1], toSmall[c.b1], toSmall[c.a2], toSmall[c.b2]}
	}
	sub := &solver{order: small, clauses: sc, failed: make(map[string]struct{})}
	if h := s.bigHint; h != nil {
		sub.hint = make([]bitset, k)
		for i, bi := range nodes {
			sub.hint[i] = newBitset(k)
			if bi >= len(h.succ) {
				continue // appended after the hint model was solved
			}
			row := h.succ[bi]
			for j, bj := range nodes {
				if bj>>6 < len(row) && row.has(bj) {
					sub.hint[i].set(j)
				}
			}
		}
	}
	if !sub.search() {
		return false
	}
	// Replay one satisfied disjunct per clause onto the full closure. Each
	// replayed pair holds in the satisfying small order, so the closure of
	// base ∪ replay is a subrelation of it — acyclic, every addEdge
	// succeeds, and every clause is satisfied by its chosen edge.
	for i, c := range sc {
		big := s.clauses[i]
		if small.succ[c.a1].has(c.b1) {
			if !s.order.addEdge(big.a1, big.b1) {
				return false // unreachable: pair holds in the small order
			}
		} else if !s.order.addEdge(big.a2, big.b2) {
			return false // unreachable
		}
	}
	return true
}

// search finds an extension of s.order satisfying every clause, or
// reports that none exists. It first runs a clone-free optimistic
// descent committing one disjunct per undecided clause (hint polarity
// first); only when that descent dead-ends does it restore the single
// entry snapshot and run the complete branch-and-memoize search. The
// happy path — a warm-started re-solve whose hint survives — costs no
// per-node clones or memo keys at all.
func (s *solver) search() bool {
	if !s.propagate() {
		return false
	}
	snap := s.order.clone()
	if s.descend() {
		return true
	}
	s.order.copyFrom(snap)
	return s.searchFull()
}

// descend greedily commits clauses in order without backtracking: the
// preferred disjunct (hint polarity) first, its sibling when the
// preferred edge cycles immediately. False means only that the greedy
// path dead-ended, not that the instance is unsatisfiable.
func (s *solver) descend() bool {
	for {
		if !s.propagate() {
			return false
		}
		pick := -1
		for i, c := range s.clauses {
			if !s.order.succ[c.a1].has(c.b1) && !s.order.succ[c.a2].has(c.b2) {
				pick = i
				break
			}
		}
		if pick < 0 {
			return true
		}
		c := s.clauses[pick]
		x1, y1, x2, y2 := c.a1, c.b1, c.a2, c.b2
		if s.hint != nil && !s.hint[c.a1].has(c.b1) && s.hint[c.a2].has(c.b2) {
			x1, y1, x2, y2 = c.a2, c.b2, c.a1, c.b1
		}
		if !s.order.addEdge(x1, y1) && !s.order.addEdge(x2, y2) {
			return false
		}
	}
}

func (s *solver) searchFull() bool {
	if !s.propagate() {
		return false
	}
	pick := -1
	for i, c := range s.clauses {
		if !s.order.succ[c.a1].has(c.b1) && !s.order.succ[c.a2].has(c.b2) {
			pick = i
			break
		}
	}
	if pick < 0 {
		return true // every clause satisfied: the order is legal
	}
	key := s.key()
	if _, refuted := s.failed[key]; refuted {
		return false
	}
	c := s.clauses[pick]
	// Branch polarity: follow the warm-start hint when it decided this
	// pair, otherwise first disjunct first (the deterministic default).
	x1, y1, x2, y2 := c.a1, c.b1, c.a2, c.b2
	if s.hint != nil && !s.hint[c.a1].has(c.b1) && s.hint[c.a2].has(c.b2) {
		x1, y1, x2, y2 = c.a2, c.b2, c.a1, c.b1
	}
	saved := s.order.clone()
	if s.order.addEdge(x1, y1) && s.searchFull() {
		return true
	}
	s.order.copyFrom(saved)
	if s.order.addEdge(x2, y2) && s.searchFull() {
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
