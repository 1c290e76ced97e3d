package history

import (
	"fmt"

	"repro/internal/model"
)

// Verdict is the outcome of a consistency check.
type Verdict struct {
	OK     bool
	Reason string
	// Witness is a serialization order that certifies OK verdicts: for
	// causal consistency, the serialization found for the last client
	// checked; for (strict) serializability, the single total order.
	Witness []model.TxnID
}

func ok(witness []model.TxnID) Verdict { return Verdict{OK: true, Witness: witness} }

func fail(format string, args ...any) Verdict {
	return Verdict{OK: false, Reason: fmt.Sprintf(format, args...)}
}

// MaxTxns bounds the BATCH checkers and bounded sessions (NewSession),
// whose closures retain the entire history at O(n²) space. It is no
// longer the ceiling of the incremental path: a streaming session
// (NewStreamingSession) retires committed prefixes of the closure, so
// its memory follows the active window and it certifies runs far past
// this constant. MaxTxns survives as the differential-oracle bound —
// below it the batch checker cross-checks every streaming verdict
// (core certifyRun, ptest.RunLoad); above it the streaming session is
// the only exact checker and the cross-check is skipped.
const MaxTxns = 4096

// ov keys the writer lookup: (object, value) pairs are unique writers
// under the paper's distinct-values assumption.
type ov struct {
	o string
	v model.Value
}

// graph is the precomputed dependency structure shared by the checkers.
type graph struct {
	h     *History
	txns  []*TxnRecord
	index map[model.TxnID]int
	// preds[i] is the set of direct predecessors of txn i under the
	// relation being checked (program order ∪ reads-from [∪ real time]).
	preds []bitset
	// writes[i] is the final value txn i leaves in each object it wrote.
	writes []map[string]model.Value
	// writer maps (object, value) to the writing txn index.
	writer map[ov]int
	// writersOf[obj] lists every txn index writing obj, ascending.
	writersOf map[string][]int
}

// build constructs the dependency graph. realTime adds completed-before-
// invoked edges (for strict serializability). It returns an error verdict
// for malformed histories (too large, duplicate values, dangling reads).
func build(h *History, realTime bool) (*graph, *Verdict) {
	g := &graph{h: h, txns: h.Records(), index: make(map[model.TxnID]int)}
	n := len(g.txns)
	if n > MaxTxns {
		v := fail("history too large for exact checking: %d > %d transactions", n, MaxTxns)
		return nil, &v
	}
	for i, t := range g.txns {
		if _, dup := g.index[t.ID]; dup {
			v := fail("duplicate transaction id %s", t.ID)
			return nil, &v
		}
		g.index[t.ID] = i
	}
	g.preds = make([]bitset, n)
	for i := range g.preds {
		g.preds[i] = newBitset(n)
	}
	g.writes = make([]map[string]model.Value, n)

	// Writer lookup: (object, value) -> txn index. Distinct values
	// required, and no write may collide with an object's initial value
	// (the initial value is a value too; a collision would make "reads
	// the initial value" ambiguous).
	g.writer = make(map[ov]int)
	g.writersOf = make(map[string][]int)
	for i, t := range g.txns {
		g.writes[i] = make(map[string]model.Value, len(t.Writes))
		for _, w := range t.Writes {
			g.writes[i][w.Object] = w.Value // last write wins
		}
		for obj, val := range g.writes[i] {
			if val == h.Initial(obj) {
				v := fail("values not distinct: %s=%s written by %s equals the initial value",
					obj, val, t.ID)
				return nil, &v
			}
			key := ov{obj, val}
			if j, dup := g.writer[key]; dup && j != i {
				v := fail("values not distinct: %s=%s written by both %s and %s",
					obj, val, g.txns[j].ID, t.ID)
				return nil, &v
			}
			g.writer[key] = i
			g.writersOf[obj] = append(g.writersOf[obj], i)
		}
	}

	// Program order: chain per client.
	for _, c := range h.Clients() {
		recs := h.ByClient(c)
		for i := 1; i < len(recs); i++ {
			g.preds[g.index[recs[i].ID]].set(g.index[recs[i-1].ID])
		}
	}

	// Reads-from: forced by value distinctness.
	for i, t := range g.txns {
		for obj, val := range t.Reads {
			if val == h.Initial(obj) {
				continue // reads the initial value
			}
			j, found := g.writer[ov{obj, val}]
			if !found {
				v := fail("dangling read: %s read %s=%s, never written", t.ID, obj, val)
				return nil, &v
			}
			if j != i {
				g.preds[i].set(j)
			}
		}
	}

	if realTime {
		for i, a := range g.txns {
			if a.Completed < 0 {
				continue
			}
			for j, b := range g.txns {
				if i != j && a.Completed < b.Invoked {
					g.preds[j].set(i)
				}
			}
		}
	}
	return g, nil
}

// acyclic checks the (transitive) predecessor relation for cycles via
// Kahn's algorithm and returns a topological order when acyclic.
func (g *graph) acyclic() ([]int, bool) {
	n := len(g.txns)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = g.preds[i].count()
	}
	var order []int
	var frontier []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		order = append(order, v)
		for j := 0; j < n; j++ {
			if g.preds[j].has(v) {
				indeg[j]--
				if indeg[j] == 0 {
					frontier = append(frontier, j)
				}
			}
		}
	}
	return order, len(order) == n
}

func (g *graph) witness(order []int) []model.TxnID {
	out := make([]model.TxnID, len(order))
	for i, idx := range order {
		out[i] = g.txns[idx].ID
	}
	return out
}

// Check certifies a complete history at a claimed consistency level
// ("causal", "read-atomic", "serializable", "strict-serializable"). Any
// other level (including "none") falls back to the causal check, the
// paper's baseline property. The load driver uses it to certify concurrent
// executions at each protocol's claimed level.
//
// It is a thin wrapper over a one-shot incremental Session: the history
// is appended record by record and the final verdict returned. Use
// CheckIncremental for the full session verdict (first offending commit,
// witness prefix), or CheckBatch for the retained one-shot solver.
func Check(h *History, level string) Verdict {
	return CheckIncremental(h, level).Verdict
}

// CheckIncremental runs a whole history through an incremental Session
// and returns the full session verdict, including the first offending
// commit index and minimal witness prefix on refutation.
func CheckIncremental(h *History, level string) SessionVerdict {
	s := NewSession(h.initial, level, h.Len())
	for _, rec := range h.Records() {
		if !s.Append(rec) {
			break
		}
	}
	return s.Finish()
}

// CheckBatch dispatches to the one-shot batch engines, which build the
// full dependency graph and solve from scratch. It is retained as the
// differential oracle for the incremental Session (the two must agree
// verdict for verdict) and as the baseline of the incremental-vs-batch
// cost comparison the bench reports.
func CheckBatch(h *History, level string) Verdict {
	switch level {
	case "read-atomic":
		return CheckReadAtomic(h)
	case "serializable":
		return CheckSerializable(h)
	case "strict-serializable":
		return CheckStrictSerializable(h)
	default:
		return CheckCausal(h)
	}
}

// CheckCausal checks Definition 1: the causal relation must be acyclic and
// every client must have a serialization of all transactions, respecting
// causal order and all program orders, in which its own transactions are
// legal.
func CheckCausal(h *History) Verdict {
	g, errv := build(h, false)
	if errv != nil {
		return *errv
	}
	topo, isDag := g.acyclic()
	if !isDag {
		return fail("causal relation is cyclic")
	}
	base := newOrderClosure(g, topo)
	// Each client is decided by the closure search alone; only the last
	// reading client's satisfying order is extended into the witness.
	var last *orderClosure
	for _, c := range h.Clients() {
		checkSet := newBitset(len(g.txns))
		any := false
		for _, rec := range h.ByClient(c) {
			checkSet.set(g.index[rec.ID])
			if len(rec.Reads) > 0 {
				any = true
			}
		}
		if !any {
			continue // write-only clients are satisfied by any extension
		}
		order, found := newSolver(g, base.clone(), checkSet).solveClosure()
		if !found {
			return fail("no causal serialization exists for client %s", c)
		}
		last = order
	}
	if last == nil {
		return ok(nil)
	}
	return ok(g.witness(extendClosure(last)))
}

// CheckSerializable checks classic serializability: one serialization of
// all transactions, respecting program order and reads-from, legal for
// every transaction.
func CheckSerializable(h *History) Verdict {
	g, errv := build(h, false)
	if errv != nil {
		return *errv
	}
	topo, isDag := g.acyclic()
	if !isDag {
		return fail("dependency relation is cyclic")
	}
	s := newSolver(g, newOrderClosure(g, topo), nil)
	order, found := s.solve()
	if !found {
		return fail("no serialization exists")
	}
	return ok(g.witness(order))
}

// CheckStrictSerializable additionally requires the serialization to
// respect real-time order (a transaction that completed before another was
// invoked must be serialized first).
func CheckStrictSerializable(h *History) Verdict {
	g, errv := build(h, true)
	if errv != nil {
		return *errv
	}
	topo, isDag := g.acyclic()
	if !isDag {
		return fail("real-time-augmented dependency relation is cyclic")
	}
	s := newSolver(g, newOrderClosure(g, topo), nil)
	order, found := s.solve()
	if !found {
		return fail("no strict serialization exists")
	}
	return ok(g.witness(order))
}

// CheckReadAtomic checks RAMP's read atomicity: no transaction observes a
// fractured read — if T reads object X from writer W, and W also wrote
// object Y which T reads, then T must read Y from W or from a transaction
// that did not complete before W was invoked (i.e. not from a strictly
// older writer). Dangling reads are also violations.
func CheckReadAtomic(h *History) Verdict {
	g, errv := build(h, false)
	if errv != nil {
		return *errv
	}
	writerOf := func(t *TxnRecord, obj string) (int, bool) {
		val := t.Reads[obj]
		if val == h.Initial(obj) {
			return -1, true // initial pseudo-writer: older than everything
		}
		j, found := g.writer[ov{obj, val}]
		return j, found
	}
	for _, t := range g.txns {
		for obj := range t.Reads {
			w, found := writerOf(t, obj)
			if !found {
				return fail("dangling read in %s on %s", t.ID, obj)
			}
			if w < 0 {
				continue
			}
			for obj2 := range t.Reads {
				if obj2 == obj {
					continue
				}
				if _, siblingWrite := g.writes[w][obj2]; !siblingWrite {
					continue
				}
				w2, found2 := writerOf(t, obj2)
				if !found2 {
					return fail("dangling read in %s on %s", t.ID, obj2)
				}
				if w2 == w {
					continue
				}
				// Fractured if the observed writer of obj2 is strictly
				// older than w (initial value, or completed before w was
				// invoked).
				if w2 < 0 {
					return fail("fractured read: %s read %s from %s but %s from the initial value",
						t.ID, obj, g.txns[w].ID, obj2)
				}
				a, b := g.txns[w2], g.txns[w]
				if a.Completed >= 0 && a.Completed < b.Invoked {
					return fail("fractured read: %s read %s from %s but %s from older %s",
						t.ID, obj, b.ID, obj2, a.ID)
				}
			}
		}
	}
	return ok(nil)
}
