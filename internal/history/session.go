// Online incremental certification: a Session carries the transitively
// closed partial order and the anti-dependency clause set of a history
// ACROSS commits, so a load run can be certified as it executes instead
// of re-solving the whole prefix per call.
//
// The key observation is that everything the batch solver derives from
// the history is monotone in the prefix: committing one more transaction
// only ever ADDS base edges (program order, reads-from, real time),
// ADDS unit edges (an initial-value read must precede every later writer
// of the object) and ADDS anti-dependency clauses (a new writer of an
// object some earlier transaction read threads a new (o → W) ∨ (t → o)
// disjunction). Nothing is ever retracted, so the session can keep the
// closed base order and the clause set and extend them per Append with
// rollback-free propagation — and the first append whose constraint set
// admits no satisfying order IS the first offending commit, with the
// appended prefix as the minimal refutable witness.
//
// Branching decisions, unlike constraints, are not monotone, so the
// session does not persist them as facts. Instead it retains the last
// satisfying order found (the "model") and repairs it greedily: a new
// base edge is folded into the model, and a new clause is satisfied by
// committing whichever disjunct the model can absorb without a cycle.
// Clause satisfaction is monotone in the model, so ONE shared growing
// model serves every serialization state at once: committing a disjunct
// for one client can never unsatisfy another client's clauses. Only when
// repair fails — the shared model contradicts a state's new constraints —
// does that state fall back to a fresh solver search over its own base
// and clause set (becoming privately modeled from then on); only when
// THAT fails is a violation declared. Per-client bases are sparse
// copy-on-write overlays over the single global closure (cow.go), so a
// global edge costs O(1) per client instead of a full closure update.
//
// Reads may observe writers that have not been appended yet (the driver
// collects completions per client, not in dependency order), so the
// session parks such reads as pending and threads their edges and
// clauses when the writer commits; a read still pending when Finish is
// called is the batch checker's dangling-read refutation.
//
// # Streaming mode and windowed eviction
//
// NewSession keeps every appended transaction and refuses past MaxTxns.
// NewStreamingSession lifts that ceiling: it RETIRES committed prefixes
// of the closure once nothing in the future can reach them, so closure
// state is bounded by the active window rather than by total appends.
// Each sweep retires the largest downward-closed set S of live
// transactions such that:
//
//	C1. every member of S base-precedes every live transaction outside
//	    S (computed as a blocked-set fixpoint: a transaction failing a
//	    per-member condition blocks, and anything not preceding a
//	    blocked transaction blocks transitively);
//	C2. every declared client has appended at least once — so every
//	    future transaction chains to S through its client's
//	    program-order tail (C6), making S → future a base fact;
//	C3. no member has pending reads (constraints fully threaded);
//	C6. no member is the newest transaction of its client (the tail
//	    keeps future appends ordered after the retired prefix).
//
// Live anti-dependency clauses referencing a member do NOT block
// retirement (clauses between concurrent transactions are satisfied in
// the model but never in the base, so they would pin the window open
// forever). Instead the sweep DECIDES every such clause on the way out,
// using the batch's defining property: a member base-precedes every
// live transaction, so a member→live disjunct is satisfied (clause
// dropped), a live→member disjunct is dead (its sibling is
// unit-forced), and a member↔member disjunct joins the batch's ghost
// constraint set below.
//
// Members of one batch may be mutually unordered (concurrent
// transactions retire together — requiring a total chain would deadlock
// the window on the first concurrent pair), so each batch freezes its
// internal base order at retirement. Every later ordering question
// against the retired set is then a recorded fact: cross-batch pairs
// are ordered by batch (each batch preceded everything live when it
// retired, including all later batches), same-batch pairs by the frozen
// order. The one genuinely open case — constraints between two
// same-batch members the base never ordered, reachable through clause
// decisions at the sweep or a late read of a long-retired writer — is
// recorded per state as "ghost" unit edges and ghost clauses over the
// frozen batch order, decided exactly as the non-evicting session's
// solver would: retired↔live edges all point retired→live, so a batch
// is isolated from the live window and a batch-local solver search
// (ghostCheck) is the whole decision. Per-state forced units between
// batch members migrate into ghost edges at retirement, preserving
// each serialization's facts. Verdicts and first-violation indices are
// identical to the non-evicting session (the eviction differential
// fuzz pins this). Retired slots return to a free list and are reused,
// so bitset rows are sized by the PEAK window. Per-transaction scalars
// that future reads may still name (the (object,value)→writer map,
// IDs, the duplicate-ID index, batch positions) are kept for the whole
// run; they are O(1) per transaction, not O(window).
package history

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/model"
)

// SessionVerdict is the outcome of an incremental certification run.
type SessionVerdict struct {
	Verdict
	// FirstViolation is the 0-based append index of the first offending
	// commit — the first transaction whose appended prefix admits no
	// legal serialization (or is malformed). It is -1 when the history
	// certified clean, and also -1 when the session refused for capacity
	// (more than MaxTxns appends on a bounded session) or for an
	// undeclared client appearing after eviction began.
	FirstViolation int
	// FirstViolationID is the transaction appended at FirstViolation.
	FirstViolationID model.TxnID
	// WitnessPrefix is the minimal refutable prefix: the IDs of every
	// transaction appended up to and including the first offending
	// commit, in append order. Nil when the history certified clean.
	WitnessPrefix []model.TxnID
	// Appended is the number of transactions the session accepted
	// (violating appends included); Resolves counts the full solver
	// searches the session had to fall back to (0 on a run certified
	// entirely by model repair).
	Appended int
	Resolves int
	// Retired counts transactions evicted from the closure window
	// (streaming sessions only); PeakWindow is the largest live window
	// the session ever held — the quantity closure memory scales with.
	Retired    int
	PeakWindow int
}

// obligation is one value read awaiting or holding its writer: reader
// read obj=val, written by txn index writer (-1 while the writer has not
// been appended yet).
type obligation struct {
	reader int
	obj    string
	val    model.Value
	writer int
}

// clientState is the per-serialization constraint state. Causal
// consistency requires one serialization per client (each legal only for
// that client's transactions), so the session keeps one state per
// reading client; the total-order levels use a single shared state.
type clientState struct {
	client string
	// base is the forced order: every global edge plus this
	// serialization's unit edges, as a copy-on-write overlay over the
	// session's global closure. Monotone — edges are never removed.
	base *cowClosure
	// shared marks a state whose model is the session's shared model.
	// When false, model is this state's private satisfying extension
	// (nil transiently while a solver re-search is owed).
	shared bool
	model  *orderClosure
	// conflict marks a state whose model could not absorb this Append's
	// constraints: a full solver search is owed at the end of Append.
	conflict bool
	// clauses is the retained anti-dependency clause set, slot-indexed.
	// Clauses satisfied by base are pruned lazily at re-solves and
	// eviction sweeps.
	clauses []clause
	// ghosts holds this serialization's forced unit edges between
	// same-batch retired transactions the base never ordered, as local
	// index pairs per batch (see the package comment); ghostClauses holds
	// the still-disjunctive constraints whose disjuncts both landed
	// inside one batch, in the same local index space. Nil until a sweep
	// decision or a late read creates one.
	ghosts       map[int32][][2]int32
	ghostClauses map[int32][]clause
}

// retiredBatch is one batch of transactions evicted together: a
// downward-closed set, every member of which base-preceded every
// transaction left live (and so, transitively, everything appended or
// retired later). succ freezes the base order among the members —
// which concurrent members may legitimately lack — so later
// constraints between two same-batch members resolve against it, or
// become per-state ghost units when the pair is unordered.
type retiredBatch struct {
	members []int    // global indices, ascending append order
	succ    []bitset // frozen base order among members (local indices)
}

// objRetired summarizes the retired writers of one object: only the
// latest holding batch's writers matter individually — any
// earlier-batch retired writer base-precedes them, permanently
// satisfying its anti-dependency disjunct against their reads.
type objRetired struct {
	batch   int32
	writers []int32 // global indices of the object's writers in batch
}

// Session certifies a history incrementally at one consistency level:
// Append each transaction as it commits (in any order consistent with
// per-client program order), then Finish for the verdict. Append reports
// false as soon as the appended prefix is refutable, which is how a load
// run learns about the first offending commit while still running.
type Session struct {
	level    string
	realTime bool // strict-serializable: completed-before-invoked edges
	perCli   bool // causal: one serialization per reading client
	ra       bool // read-atomic: pairwise fracture checks, no closures

	// streaming lifts the MaxTxns ceiling and (for the closure levels)
	// enables windowed eviction; declared lists the clients that may
	// appear once eviction has begun.
	streaming       bool
	declared        map[string]bool
	pendingDeclared int
	evictEvery      int // appends between eviction sweeps
	sinceSweep      int
	evicting        bool

	initial map[string]model.Value

	// Global append-order records. txns and writes rows are released on
	// retirement; ids and index are kept for witnesses and duplicate
	// detection, writer/retiredW for reads that resolve to long-retired
	// writers.
	txns   []*TxnRecord
	ids    []model.TxnID
	index  map[model.TxnID]int
	lastOf map[string]int // last appended txn per client (program order)

	writes    []map[string]model.Value // final value per object, per txn
	writer    map[ov]int
	writersOf map[string][]int // LIVE writers per object
	// batchOf/localOf name a retired transaction's batch and its
	// position within it (-1 while live); batches hold each batch's
	// frozen internal base order; retiredW summarizes, per object, the
	// latest batch holding retired writers of it.
	batchOf           []int32
	localOf           []int32
	batches           []*retiredBatch
	retiredW          map[string]*objRetired
	maxRetiredInvoked int64 // real time vs retired txns, one comparison

	valueReaders map[string][]*obligation
	initReaders  map[string][]int
	pending      map[ov][]*obligation
	pendingCnt   int
	unresolved   []int // per-txn count of reads still awaiting a writer

	// Slot space: closure rows are indexed by slot, reused through free;
	// slotOf maps a global index to its slot (-1 once retired); globOf
	// maps a slot back (-1: free).
	slotOf     []int32
	globOf     []int
	free       []int32
	nLive      int
	peakWindow int
	retired    int

	words  int // current bitset word capacity of every closure
	base   *orderClosure
	model  *orderClosure // the shared model (see package comment)
	states map[string]*clientState
	order  []*clientState // states in creation order (deterministic)

	resolves int
	done     bool
	sv       *SessionVerdict
}

func newSession(initial map[string]model.Value, level string, capHint int) *Session {
	s := &Session{
		level:        level,
		initial:      make(map[string]model.Value, len(initial)),
		index:        make(map[model.TxnID]int),
		lastOf:       make(map[string]int),
		writer:       make(map[ov]int),
		writersOf:    make(map[string][]int),
		retiredW:     make(map[string]*objRetired),
		valueReaders: make(map[string][]*obligation),
		initReaders:  make(map[string][]int),
		pending:      make(map[ov][]*obligation),
		states:       make(map[string]*clientState),
	}
	for k, v := range initial {
		s.initial[k] = v
	}
	switch level {
	case "read-atomic":
		s.ra = true
	case "serializable":
	case "strict-serializable":
		s.realTime = true
	default:
		s.level = "causal"
		s.perCli = true
	}
	if capHint < 64 {
		capHint = 64
	}
	s.words = (capHint + 63) / 64
	if !s.ra {
		s.base = &orderClosure{}
		s.model = &orderClosure{}
		s.model.deferColumns()
		if !s.perCli {
			// Total-order levels: one shared serialization state whose
			// base IS the global closure (write-through, not cloned —
			// there is only one serialization, so its unit edges are
			// global facts).
			st := &clientState{base: newCowClosure(s.base, true, s.words), shared: true}
			s.states[""] = st
			s.order = append(s.order, st)
		}
	}
	return s
}

// NewSession starts an incremental certification at the given level
// ("causal", "read-atomic", "serializable", "strict-serializable"; any
// other level checks causal, mirroring Check). initial gives the initial
// value per object; capHint sizes the closure bitsets for the expected
// transaction count (they grow if exceeded). A bounded session keeps
// every transaction and refuses past MaxTxns — use NewStreamingSession
// for runs beyond the batch oracle's ceiling.
func NewSession(initial map[string]model.Value, level string, capHint int) *Session {
	if capHint > MaxTxns {
		capHint = MaxTxns
	}
	return newSession(initial, level, capHint)
}

// NewStreamingSession starts an unbounded incremental certification:
// committed prefixes of the closure are retired once no pending read or
// program-order tail can reach them (see the package comment), so
// session memory is bounded by the active window rather than by total
// appends. clients declares every client that will appear
// in the history; a client outside the declared set may still appear as
// long as its first transaction precedes the first eviction, after
// which unknown clients are refused (their transactions would not chain
// to the retired prefix). The read-atomic level streams without
// eviction: it keeps no closures, only O(1)-per-txn scalars.
func NewStreamingSession(initial map[string]model.Value, level string, clients []string) *Session {
	s := newSession(initial, level, 256)
	s.streaming = true
	s.evictEvery = 64
	s.declared = make(map[string]bool, len(clients))
	for _, c := range clients {
		if !s.declared[c] {
			s.declared[c] = true
			s.pendingDeclared++
		}
	}
	return s
}

// Initial returns the initial value of obj (the zero Value when unset).
func (s *Session) Initial(obj string) model.Value { return s.initial[obj] }

// Appended returns the number of transactions appended so far.
func (s *Session) Appended() int { return len(s.txns) }

// retiredG reports whether global index g has been retired.
func (s *Session) retiredG(g int) bool { return s.batchOf[g] >= 0 }

// slot translates a live global index to its closure slot.
func (s *Session) slot(g int) int { return int(s.slotOf[g]) }

// modelOf returns the model serving st: the shared model, or the
// state's private one (nil while a resolve is owed).
func (s *Session) modelOf(st *clientState) *orderClosure {
	if st.shared {
		return s.model
	}
	return st.model
}

// Append feeds the next committed transaction to the session and reports
// whether the appended prefix still admits a legal serialization. Once
// it returns false the session is sealed: the verdict (with the first
// offending commit) is available from Finish and later appends are
// ignored.
func (s *Session) Append(rec *TxnRecord) bool {
	if s.done {
		return false
	}
	i := len(s.txns)
	if !s.streaming && i >= MaxTxns {
		return s.refuse("history too large for exact checking: > %d transactions", MaxTxns)
	}
	if _, seen := s.lastOf[rec.Client]; !seen && s.streaming {
		if s.declared[rec.Client] {
			s.pendingDeclared--
		} else if s.evicting {
			return s.refuse(
				"streaming session: client %s appeared after eviction began (declare all clients to NewStreamingSession)",
				rec.Client)
		}
	}
	if _, dup := s.index[rec.ID]; dup {
		// Append before sealing so the witness prefix includes the
		// offending commit itself, like every other violation path.
		s.txns = append(s.txns, rec)
		s.ids = append(s.ids, rec.ID)
		return s.violate(i, rec.ID, "duplicate transaction id %s", rec.ID)
	}
	s.txns = append(s.txns, rec)
	s.ids = append(s.ids, rec.ID)
	s.index[rec.ID] = i
	s.unresolved = append(s.unresolved, 0)
	s.batchOf = append(s.batchOf, -1)
	s.localOf = append(s.localOf, -1)
	if s.ra {
		s.slotOf = append(s.slotOf, int32(i))
	} else {
		s.slotOf = append(s.slotOf, int32(s.addSlot(i)))
	}

	// Final writes (last write per object wins) and value distinctness.
	w := make(map[string]model.Value, len(rec.Writes))
	for _, wr := range rec.Writes {
		w[wr.Object] = wr.Value
	}
	s.writes = append(s.writes, w)
	wobjs := make([]string, 0, len(w))
	for obj := range w {
		wobjs = append(wobjs, obj)
	}
	sort.Strings(wobjs)
	for _, obj := range wobjs {
		val := w[obj]
		if val == s.Initial(obj) {
			return s.violate(i, rec.ID,
				"values not distinct: %s=%s written by %s equals the initial value", obj, val, rec.ID)
		}
		if j, dup := s.writer[ov{obj, val}]; dup && j != i {
			return s.violate(i, rec.ID,
				"values not distinct: %s=%s written by both %s and %s", obj, val, s.ids[j], rec.ID)
		}
		s.writer[ov{obj, val}] = i
		s.writersOf[obj] = append(s.writersOf[obj], i)
	}

	if !s.ra {
		// Program order.
		if prev, seen := s.lastOf[rec.Client]; seen {
			if !s.forceGlobal(i, prev, i) {
				return false
			}
		}
		// Real time (strict serializability): live transactions newest
		// first so older pairs are usually already implied transitively;
		// edges against the retired prefix reduce to one comparison (a
		// retired txn precedes i by construction, and i preceding any
		// retired txn is a cycle).
		if s.realTime {
			for t := len(s.globOf) - 1; t >= 0; t-- {
				j := s.globOf[t]
				if j < 0 || j == i {
					continue
				}
				a := s.txns[j]
				if a.Completed >= 0 && a.Completed < rec.Invoked {
					if !s.forceGlobal(i, j, i) {
						return false
					}
				}
				if rec.Completed >= 0 && rec.Completed < a.Invoked {
					if !s.forceGlobal(i, i, j) {
						return false
					}
				}
			}
			if s.retired > 0 && rec.Completed >= 0 && rec.Completed < s.maxRetiredInvoked {
				return s.violate(i, rec.ID, "%s", s.cyclicBase())
			}
		}
	}
	s.lastOf[rec.Client] = i

	// The new transaction as a writer: thread the obligations of every
	// EARLIER read of the objects it wrote.
	for _, obj := range wobjs {
		for _, r := range s.initReaders[obj] {
			// An initial-value read must precede every writer of the object.
			if r != i && !s.ra {
				if !s.forceIn(i, s.stateFor(s.txns[r].Client), r, i) {
					return false
				}
			}
		}
		if !s.ra {
			for _, ob := range s.valueReaders[obj] {
				if ob.writer < 0 || ob.writer == i || ob.reader == i {
					continue // pending (threaded at resolution), or own
				}
				// Anti-dependency: the new writer must not land between the
				// read's writer and the read. Reader-before-new-writer first:
				// for a run appended in rough time order that disjunct is the
				// one the model usually absorbs.
				if !s.addConstraint(i, s.stateFor(s.txns[ob.reader].Client),
					ob.reader, i, i, ob.writer) {
					return false
				}
			}
		}
		// Reads that were waiting for exactly this write resolve now.
		key := ov{obj, w[obj]}
		if waiting := s.pending[key]; len(waiting) > 0 {
			delete(s.pending, key)
			for _, ob := range waiting {
				s.unresolved[ob.reader]--
				s.pendingCnt--
				if !s.bind(i, ob, i) {
					return false
				}
				if s.ra && s.unresolved[ob.reader] == 0 {
					if !s.checkReadAtomic(i, ob.reader) {
						return false
					}
				}
			}
		}
	}

	// The new transaction as a reader.
	for _, obj := range sortedObjects(rec.Reads) {
		val := rec.Reads[obj]
		if val == s.Initial(obj) {
			s.initReaders[obj] = append(s.initReaders[obj], i)
			if s.ra {
				continue
			}
			st := s.stateFor(rec.Client)
			if s.retiredW[obj] != nil {
				// A retired writer precedes every live transaction, and
				// an initial-value read must precede every writer.
				return s.violate(i, rec.ID, "%s", s.noSerialization(st.client))
			}
			for _, o := range s.writersOf[obj] {
				if o == i {
					continue // own write: reads precede writes
				}
				if !s.forceIn(i, st, i, o) {
					return false
				}
			}
			continue
		}
		ob := &obligation{reader: i, obj: obj, val: val, writer: -1}
		s.valueReaders[obj] = append(s.valueReaders[obj], ob)
		if wi, found := s.writer[ov{obj, val}]; found {
			if !s.bind(i, ob, wi) {
				return false
			}
		} else {
			s.pending[ov{obj, val}] = append(s.pending[ov{obj, val}], ob)
			s.unresolved[i]++
			s.pendingCnt++
		}
	}
	if s.ra && len(rec.Reads) > 0 && s.unresolved[i] == 0 {
		if !s.checkReadAtomic(i, i) {
			return false
		}
	}

	// Any state whose model could not absorb the new constraints owes a
	// full solver search; failure here is the first offending commit.
	for _, st := range s.order {
		if st.conflict && !s.resolve(i, st) {
			return false
		}
	}

	if s.streaming && !s.ra && s.pendingDeclared <= 0 {
		s.sinceSweep++
		if s.sinceSweep >= s.evictEvery {
			s.sinceSweep = 0
			if !s.sweep(i) {
				return false
			}
		}
	}
	return true
}

// Finish seals the session and returns the verdict. Reads still awaiting
// a writer refute the history (the batch checker's dangling read); an
// accepting verdict carries a witness serialization: each retired batch
// in order (members topologically sorted under the frozen base order
// plus the witness state's ghost units) followed by an extension of the
// retained model over the live window.
func (s *Session) Finish() SessionVerdict {
	if s.sv != nil {
		return *s.sv
	}
	if s.pendingCnt > 0 {
		first := -1
		var firstOb *obligation
		for _, waiting := range s.pending {
			for _, ob := range waiting {
				if first < 0 || ob.reader < first ||
					(ob.reader == first && ob.obj < firstOb.obj) {
					first, firstOb = ob.reader, ob
				}
			}
		}
		s.violate(first, s.ids[first],
			"dangling read: %s read %s=%s, never written", s.ids[first], firstOb.obj, firstOb.val)
		return *s.sv
	}
	var witness []model.TxnID
	if !s.ra && len(s.order) > 0 {
		// Mirror the batch checkers: the witness is the serialization of
		// the last state checked (for causal, the last reading client in
		// sorted order; for the total orders, the single shared state).
		st := s.order[0]
		if s.perCli {
			for _, other := range s.order[1:] {
				if other.client > st.client {
					st = other
				}
			}
		}
		witness = make([]model.TxnID, 0, len(s.txns))
		for bi := range s.batches {
			witness = s.appendBatchWitness(witness, int32(bi), st)
		}
		for _, t := range extendClosure(s.modelOf(st)) {
			if g := s.globOf[t]; g >= 0 {
				witness = append(witness, s.ids[g])
			}
		}
	}
	s.done = true
	s.sv = &SessionVerdict{
		Verdict:        ok(witness),
		FirstViolation: -1,
		Appended:       len(s.txns),
		Resolves:       s.resolves,
		Retired:        s.retired,
		PeakWindow:     s.peakWindow,
	}
	return *s.sv
}

// violate seals the session with a refutation first established at
// append index cur.
func (s *Session) violate(cur int, id model.TxnID, format string, args ...any) bool {
	s.done = true
	prefix := make([]model.TxnID, 0, cur+1)
	for k := 0; k <= cur && k < len(s.ids); k++ {
		prefix = append(prefix, s.ids[k])
	}
	s.sv = &SessionVerdict{
		Verdict:          fail(format, args...),
		FirstViolation:   cur,
		FirstViolationID: id,
		WitnessPrefix:    prefix,
		Appended:         len(s.txns),
		Resolves:         s.resolves,
		Retired:          s.retired,
		PeakWindow:       s.peakWindow,
	}
	return false
}

// refuse seals the session without blaming a transaction (capacity or
// streaming-declaration refusals: FirstViolation stays -1).
func (s *Session) refuse(format string, args ...any) bool {
	s.done = true
	s.sv = &SessionVerdict{
		Verdict:        fail(format, args...),
		FirstViolation: -1,
		Appended:       len(s.txns),
		Resolves:       s.resolves,
		Retired:        s.retired,
		PeakWindow:     s.peakWindow,
	}
	return false
}

// noSerialization is the per-level refutation message, matching the
// batch checkers.
func (s *Session) noSerialization(client string) string {
	switch {
	case s.perCli:
		return fmt.Sprintf("no causal serialization exists for client %s", client)
	case s.realTime:
		return "no strict serialization exists"
	default:
		return "no serialization exists"
	}
}

// cyclicBase is the per-level message for a cycle in the forced global
// order, matching the batch checkers.
func (s *Session) cyclicBase() string {
	switch {
	case s.perCli:
		return "causal relation is cyclic"
	case s.realTime:
		return "real-time-augmented dependency relation is cyclic"
	default:
		return "dependency relation is cyclic"
	}
}

// addSlot allocates a closure slot for global index g: a retired slot
// off the free list (rows already zeroed) or a fresh node in every
// closure, widening the bitsets when slot capacity is exhausted.
func (s *Session) addSlot(g int) int {
	if n := len(s.free); n > 0 {
		t := int(s.free[n-1])
		s.free = s.free[:n-1]
		s.globOf[t] = g
		s.nLive++
		return t
	}
	n := len(s.base.succ)
	if n >= s.words*64 {
		s.words *= 2
		s.base.growWords(s.words)
		s.model.growWords(s.words)
		for _, st := range s.order {
			st.base.growWords(s.words)
			if !st.shared && st.model != nil {
				st.model.growWords(s.words)
			}
		}
	}
	s.base.addNode(s.words)
	s.model.addNode(s.words)
	for _, st := range s.order {
		if !st.shared && st.model != nil {
			st.model.addNode(s.words)
		}
	}
	s.globOf = append(s.globOf, g)
	s.nLive++
	if s.nLive > s.peakWindow {
		s.peakWindow = s.nLive
	}
	return n
}

// stateFor returns (creating on first use) the serialization state the
// given client's read obligations constrain. New states start as pure
// views of the global closure and the shared model — creation is O(1).
func (s *Session) stateFor(client string) *clientState {
	if !s.perCli {
		return s.states[""]
	}
	if st, found := s.states[client]; found {
		return st
	}
	st := &clientState{client: client, base: newCowClosure(s.base, false, s.words), shared: true}
	s.states[client] = st
	s.order = append(s.order, st)
	return st
}

// forceGlobal adds a forced edge of the global relation (program order,
// reads-from, real time) to the base, the shared model, and every
// state. a and b are global indices; edges into or out of the retired
// prefix reduce to implication or refutation. A cycle in the global
// base refutes the history outright.
func (s *Session) forceGlobal(cur, a, b int) bool {
	ra, rb := s.retiredG(a), s.retiredG(b)
	switch {
	case ra && rb:
		switch s.edgeStatus(a, b) {
		case edgeSatisfied:
			return true // already a frozen fact
		case edgeDead:
			return s.violate(cur, s.ids[cur], "%s", s.cyclicBase())
		}
		// Base-unordered within one batch: a global fact binds every
		// serialization (unreachable from current edge sources, which
		// always have a live endpoint; kept for completeness).
		for _, st := range s.order {
			if !s.ghostForce(cur, st, a, b) {
				return false
			}
		}
		return true
	case ra:
		return true // retired precedes every live transaction
	case rb:
		return s.violate(cur, s.ids[cur], "%s", s.cyclicBase())
	}
	sa, sb := s.slot(a), s.slot(b)
	if !s.base.addEdge(sa, sb) {
		return s.violate(cur, s.ids[cur], "%s", s.cyclicBase())
	}
	if !s.model.addEdge(sa, sb) {
		// The shared model committed disjuncts that contradict the new
		// base edge: every state leaning on it owes a private re-solve,
		// and the shared model restarts from the (consistent) base.
		for _, st := range s.order {
			if st.shared {
				st.shared = false
				st.model = nil
				st.conflict = true
			}
		}
		s.model = s.base.clone()
		s.model.deferColumns()
	}
	for _, st := range s.order {
		if st.base.diverged() {
			if st.base.has(sb, sa) {
				return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
			}
			st.base.applyParentEdge(sa, sb)
		}
		if !st.shared && st.model != nil && !st.model.addEdge(sa, sb) {
			st.model = nil
			st.conflict = true
		}
	}
	return true
}

// forceIn adds a forced edge to one state's base and folds it into its
// model (degrading the state to a private re-solve on conflict; a base
// conflict refutes). a and b are global indices.
func (s *Session) forceIn(cur int, st *clientState, a, b int) bool {
	ra, rb := s.retiredG(a), s.retiredG(b)
	switch {
	case ra && rb:
		switch s.edgeStatus(a, b) {
		case edgeSatisfied:
			return true
		case edgeDead:
			return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
		}
		return s.ghostForce(cur, st, a, b)
	case ra:
		return true
	case rb:
		return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
	}
	sa, sb := s.slot(a), s.slot(b)
	if !st.base.addEdge(sa, sb) {
		return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
	}
	if st.shared {
		if !s.model.addEdge(sa, sb) {
			// Only this state needs the edge; the shared model stays
			// valid for everyone else.
			st.shared = false
			st.model = nil
			st.conflict = true
		}
	} else if st.model != nil && !st.model.addEdge(sa, sb) {
		st.model = nil
		st.conflict = true
	}
	return true
}

// edge dispositions against the retired prefix.
const (
	edgeOpen      = iota // both endpoints live: a real ordering literal
	edgeSatisfied        // already a frozen or implied base fact
	edgeDead             // its reverse is a frozen or implied base fact
	edgeGhost            // both retired in one batch, base-unordered
)

// edgeStatus classifies a prospective edge a→b (global indices) against
// the retired prefix. Retired transactions precede every live one,
// earlier batches precede later ones, and same-batch pairs resolve
// against the batch's frozen base order — every non-ghost answer is a
// base fact the non-evicting session would have read off its closure.
func (s *Session) edgeStatus(a, b int) int {
	ba, bb := s.batchOf[a], s.batchOf[b]
	switch {
	case ba >= 0 && bb >= 0:
		if ba != bb {
			if ba < bb {
				return edgeSatisfied
			}
			return edgeDead
		}
		batch := s.batches[ba]
		la, lb := int(s.localOf[a]), int(s.localOf[b])
		if batch.succ[la].has(lb) {
			return edgeSatisfied
		}
		if batch.succ[lb].has(la) {
			return edgeDead
		}
		return edgeGhost
	case ba >= 0:
		return edgeSatisfied
	case bb >= 0:
		return edgeDead
	default:
		return edgeOpen
	}
}

// ghostReaches reports whether local index from reaches to over the
// batch's frozen base order plus the given ghost edges (paths may
// alternate base hops and ghost edges freely).
func ghostReaches(batch *retiredBatch, edges [][2]int32, from, to int) bool {
	if from == to || batch.succ[from].has(to) {
		return true
	}
	if len(edges) == 0 {
		return false
	}
	visited := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == to || batch.succ[x].has(to) {
			return true
		}
		for _, e := range edges {
			u, v := int(e[0]), int(e[1])
			if !visited[v] && (u == x || batch.succ[x].has(u)) {
				visited[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// ghostBlocked reports whether forcing the same-batch unit a→b would
// cycle against st's view of the batch (the frozen base order plus its
// own ghost units).
func (s *Session) ghostBlocked(st *clientState, a, b int) bool {
	bi := s.batchOf[a]
	var edges [][2]int32
	if st.ghosts != nil {
		edges = st.ghosts[bi]
	}
	return ghostReaches(s.batches[bi], edges, int(s.localOf[b]), int(s.localOf[a]))
}

// ghostForce records the forced unit a→b (same-batch retired global
// indices, base-unordered) in st, refuting on a cycle or when the
// batch's ghost clause set loses its last satisfying order — the exact
// decision the non-evicting session's solver would make, since ghost
// constraints can never interact with the live window (no edge points
// from a live transaction into the retired prefix).
func (s *Session) ghostForce(cur int, st *clientState, a, b int) bool {
	if s.ghostBlocked(st, a, b) {
		return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
	}
	bi := s.batchOf[a]
	la, lb := s.localOf[a], s.localOf[b]
	edges := st.ghosts[bi]
	if ghostReaches(s.batches[bi], edges, int(la), int(lb)) {
		return true // already implied
	}
	if st.ghosts == nil {
		st.ghosts = make(map[int32][][2]int32)
	}
	st.ghosts[bi] = append(edges, [2]int32{la, lb})
	if len(st.ghostClauses[bi]) > 0 && !s.ghostCheck(st, bi) {
		return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
	}
	return true
}

// ghostClauseAdd retains a clause whose disjuncts both landed inside
// one batch (batch-local indices) and re-decides the batch's ghost
// constraint set.
func (s *Session) ghostClauseAdd(cur int, st *clientState, bi int32, c clause) bool {
	if st.ghostClauses == nil {
		st.ghostClauses = make(map[int32][]clause)
	}
	st.ghostClauses[bi] = append(st.ghostClauses[bi], c)
	if !s.ghostCheck(st, bi) {
		return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
	}
	return true
}

// batchClosure materializes one batch's frozen base order plus st's
// ghost units for it as a solver-ready closure over the batch's local
// indices. Reports false when the units cycle (defensive: units are
// cycle-checked as they are recorded).
func (s *Session) batchClosure(bi int32, st *clientState) (*orderClosure, bool) {
	batch := s.batches[bi]
	k := len(batch.members)
	c := &orderClosure{succ: make([]bitset, k), pred: make([]bitset, k)}
	for u := 0; u < k; u++ {
		c.succ[u] = batch.succ[u].clone()
		c.pred[u] = newBitset(k)
	}
	for u := 0; u < k; u++ {
		batch.succ[u].forEach(func(v int) { c.pred[v].set(u) })
	}
	for _, e := range st.ghosts[bi] {
		if !c.addEdge(int(e[0]), int(e[1])) {
			return nil, false
		}
	}
	return c, true
}

// ghostCheck decides st's accumulated ghost constraint set for one
// batch exactly as the non-evicting solver would: the frozen order plus
// every ghost unit must extend to an order satisfying every ghost
// clause. The batch is isolated from the live window, so this
// batch-local search is the whole decision.
func (s *Session) ghostCheck(st *clientState, bi int32) bool {
	c, ok := s.batchClosure(bi, st)
	if !ok {
		return false
	}
	clauses := st.ghostClauses[bi]
	if len(clauses) == 0 {
		return true
	}
	_, ok = newClauseSolver(c, clauses).solveClosure()
	return ok
}

// addConstraint threads the anti-dependency disjunction
// (a1→b1) ∨ (a2→b2) (global indices) into st. Disjuncts touching the
// retired prefix are decided immediately: a satisfied disjunct drops
// the clause, a dead disjunct unit-forces its sibling, two dead
// disjuncts refute, a single ghost disjunct (same-batch retired pair
// the base never ordered) commits as a ghost unit when free, and two
// ghost disjuncts are retained as a ghost clause. Fully live clauses
// are retained slot-indexed.
func (s *Session) addConstraint(cur int, st *clientState, a1, b1, a2, b2 int) bool {
	d1, d2 := s.edgeStatus(a1, b1), s.edgeStatus(a2, b2)
	switch {
	case d1 == edgeSatisfied || d2 == edgeSatisfied:
		return true
	case d1 == edgeDead && d2 == edgeDead:
		return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
	case d1 == edgeDead:
		if d2 == edgeGhost {
			return s.ghostForce(cur, st, a2, b2)
		}
		return s.forceIn(cur, st, a2, b2)
	case d2 == edgeDead:
		if d1 == edgeGhost {
			return s.ghostForce(cur, st, a1, b1)
		}
		return s.forceIn(cur, st, a1, b1)
	case d1 == edgeGhost && d2 == edgeGhost:
		// Both disjuncts landed inside one batch (they share a
		// transaction, so it is the same batch): keep the disjunction as
		// a ghost clause — greedily committing one side could refute a
		// history the other side satisfies.
		return s.ghostClauseAdd(cur, st, s.batchOf[a1], clause{
			int(s.localOf[a1]), int(s.localOf[b1]),
			int(s.localOf[a2]), int(s.localOf[b2])})
	case d1 == edgeGhost:
		// A free ghost edge satisfies the clause without constraining
		// the live window; only when it would cycle must the live
		// sibling carry the clause.
		if !s.ghostBlocked(st, a1, b1) {
			return s.ghostForce(cur, st, a1, b1)
		}
		return s.forceIn(cur, st, a2, b2)
	case d2 == edgeGhost:
		if !s.ghostBlocked(st, a2, b2) {
			return s.ghostForce(cur, st, a2, b2)
		}
		return s.forceIn(cur, st, a1, b1)
	}
	s.addClause(st, clause{s.slot(a1), s.slot(b1), s.slot(a2), s.slot(b2)})
	return true
}

// addClause retains a fully live anti-dependency clause (slot-indexed)
// and repairs the model: clauses the state's base already satisfies are
// dropped, clauses the model satisfies cost nothing, and otherwise the
// model greedily commits the first disjunct it can absorb without a
// cycle (committing into the shared model is safe for every other
// state: clause satisfaction is monotone in the model). If neither
// fits, the state owes a solver search at the end of this Append.
func (s *Session) addClause(st *clientState, c clause) {
	if st.base.has(c.a1, c.b1) || st.base.has(c.a2, c.b2) {
		return
	}
	st.clauses = append(st.clauses, c)
	if st.conflict {
		return
	}
	m := s.modelOf(st)
	if m == nil {
		return
	}
	if m.has(c.a1, c.b1) || m.has(c.a2, c.b2) {
		return
	}
	if m.addEdge(c.a1, c.b1) || m.addEdge(c.a2, c.b2) {
		return
	}
	st.shared = false
	st.model = nil
	st.conflict = true
}

// bind resolves a value read to its writer: the reads-from edge becomes
// part of the global base and the read's anti-dependency clauses are
// threaded against every other known writer of the object (writers still
// to come are threaded by the writer-side pass of Append; retired
// writers reduce to one chain-position comparison).
func (s *Session) bind(cur int, ob *obligation, wi int) bool {
	ob.writer = wi
	if ob.reader == wi {
		if s.ra {
			return true // reading your own write is not a fracture
		}
		return s.violate(cur, s.ids[cur], "%s",
			s.noSerialization(s.txns[ob.reader].Client))
	}
	if s.ra {
		return true
	}
	if !s.forceGlobal(cur, wi, ob.reader) {
		return false
	}
	st := s.stateFor(s.txns[ob.reader].Client)
	if s.retiredG(wi) {
		// Every retired writer o of the object in a batch after wi's
		// sits between wi and the (live) reader in every extension of
		// the base: (o→wi) and (reader→o) are both base-refuted. Writers
		// retired in wi's own batch resolve against the frozen batch
		// order, or become ghost units when the base never ordered them;
		// earlier-batch writers satisfy their disjunct outright.
		if or := s.retiredW[ob.obj]; or != nil {
			if or.batch > s.batchOf[wi] {
				return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
			}
			for _, og := range or.writers {
				o := int(og)
				if o == wi {
					continue
				}
				switch s.edgeStatus(o, wi) {
				case edgeSatisfied:
				case edgeDead:
					return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
				case edgeGhost:
					if !s.ghostForce(cur, st, o, wi) {
						return false
					}
				}
			}
		}
	}
	for _, o := range s.writersOf[ob.obj] {
		if o == wi || o == ob.reader {
			continue
		}
		if !s.addConstraint(cur, st, o, wi, ob.reader, o) {
			return false
		}
	}
	return true
}

// resolve rebuilds a state's model by a full solver search over the
// retained base and clause set. Failure means the appended prefix admits
// no legal serialization: the current append is the first offending
// commit.
func (s *Session) resolve(cur int, st *clientState) bool {
	live := st.clauses[:0]
	for _, c := range st.clauses {
		if st.base.has(c.a1, c.b1) || st.base.has(c.a2, c.b2) {
			continue // satisfied by the base: monotone, stays satisfied
		}
		live = append(live, c)
	}
	st.clauses = live
	s.resolves++
	m, found := newClauseSolver(st.base.materialize(), st.clauses).solveClosure()
	if !found {
		return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
	}
	m.deferColumns()
	st.shared = false
	st.model = m
	st.conflict = false
	return true
}

// sweep retires the largest retirable downward-closed set of live
// transactions (conditions C1–C6 of the package comment): transactions
// failing a per-member condition block, anything not base-preceding a
// blocked transaction blocks transitively, and whatever remains
// precedes everything left live — retirable as one batch. Clauses
// referencing a member are decided on the way out (see the package
// comment); the decisions can refute the history, in which case sweep
// reports false with the current append as the offending commit.
func (s *Session) sweep(cur int) bool {
	if s.nLive < 2 {
		return true
	}
	liveSet := newBitset(s.words * 64)
	blocked := newBitset(s.words * 64)
	var queue []int
	block := func(t int) {
		if !blocked.has(t) {
			blocked.set(t)
			queue = append(queue, t)
		}
	}
	for t, g := range s.globOf {
		if g < 0 {
			continue
		}
		liveSet.set(t)
		if s.unresolved[g] != 0 || // C3: pending reads still thread constraints
			s.lastOf[s.txns[g].Client] == g { // C6: program-order tail
			block(t)
		}
	}
	for len(queue) > 0 {
		y := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		pred := s.base.pred[y]
		for w := range liveSet {
			rest := liveSet[w] &^ blocked[w] &^ pred[w]
			for rest != 0 {
				block(w<<6 + bits.TrailingZeros64(rest))
				rest &= rest - 1
			}
		}
	}
	var members []int
	for t, g := range s.globOf {
		if g >= 0 && !blocked.has(t) {
			members = append(members, g)
		}
	}
	if len(members) == 0 {
		return true
	}
	sort.Ints(members)

	// Decide every clause that references a member, in slot space while
	// slots are still valid: against st's own base a disjunct may already
	// be satisfied or dead; otherwise membership decides it — a member
	// base-precedes everything staying live, so member→out is satisfied,
	// out→member is dead, and member↔member (a "pair") is deferred to the
	// batch's ghost domain. Actions are collected as global indices and
	// applied after retireBatch assigns the batch-local index space.
	const (
		dSat = iota
		dDead
		dPair // both endpoints in the batch, st.base-unordered
		dOpen // both endpoints staying live, st.base-unordered
	)
	const (
		actForce       = iota // unit-force a live disjunct
		actGhost              // record a ghost unit
		actGhostClause        // retain a two-pair disjunction as a ghost clause
	)
	type sweepAct struct {
		st             *clientState
		kind           int
		a1, b1, a2, b2 int // global indices (a2/b2 used by actGhostClause)
	}
	var acts []sweepAct
	for _, st := range s.order {
		classify := func(a, b int) int {
			if st.base.has(a, b) {
				return dSat
			}
			if st.base.has(b, a) {
				return dDead
			}
			ina, inb := !blocked.has(a), !blocked.has(b)
			switch {
			case ina && inb:
				return dPair
			case ina:
				return dSat
			case inb:
				return dDead
			}
			return dOpen
		}
		keep := st.clauses[:0]
		for _, c := range st.clauses {
			d1, d2 := classify(c.a1, c.b1), classify(c.a2, c.b2)
			switch {
			case d1 == dSat || d2 == dSat:
				// Satisfied forever (base and membership facts are monotone).
			case d1 == dOpen && d2 == dOpen:
				keep = append(keep, c)
			case d1 == dDead && d2 == dDead:
				// Unreachable in a live session: the edge that killed the
				// second disjunct broke the state's model and the resolve at
				// that append (before any sweep) would have refuted.
				return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
			case d1 == dDead && d2 == dOpen:
				acts = append(acts, sweepAct{st: st, kind: actForce,
					a1: s.globOf[c.a2], b1: s.globOf[c.b2]})
			case d2 == dDead && d1 == dOpen:
				acts = append(acts, sweepAct{st: st, kind: actForce,
					a1: s.globOf[c.a1], b1: s.globOf[c.b1]})
			case d1 == dPair && d2 == dPair:
				acts = append(acts, sweepAct{st: st, kind: actGhostClause,
					a1: s.globOf[c.a1], b1: s.globOf[c.b1],
					a2: s.globOf[c.a2], b2: s.globOf[c.b2]})
			case d1 == dPair && d2 == dDead:
				acts = append(acts, sweepAct{st: st, kind: actGhost,
					a1: s.globOf[c.a1], b1: s.globOf[c.b1]})
			case d2 == dPair && d1 == dDead:
				acts = append(acts, sweepAct{st: st, kind: actGhost,
					a1: s.globOf[c.a2], b1: s.globOf[c.b2]})
			default:
				// dPair with a dOpen sibling cannot arise: the disjuncts
				// share a transaction, which cannot be both in and out of
				// the batch. Satisfy the live sibling defensively.
				if d1 == dOpen {
					acts = append(acts, sweepAct{st: st, kind: actForce,
						a1: s.globOf[c.a1], b1: s.globOf[c.b1]})
				} else {
					acts = append(acts, sweepAct{st: st, kind: actForce,
						a1: s.globOf[c.a2], b1: s.globOf[c.b2]})
				}
			}
		}
		st.clauses = keep
	}

	bi := int32(len(s.batches))
	s.retireBatch(members)

	// Apply the deferred decisions. Ghost registrations are appended in
	// bulk and each touched state re-decided ONCE per sweep (the state's
	// model — intact here, resolves ran before the sweep — orders every
	// forced pair and satisfies every retained disjunction, so the
	// re-decision is guaranteed satisfiable; the check is defensive).
	// Live unit-forces can degrade states, whose resolves run last.
	ghostTouched := make(map[*clientState]bool)
	for _, act := range acts {
		st := act.st
		switch act.kind {
		case actGhost:
			if st.ghosts == nil {
				st.ghosts = make(map[int32][][2]int32)
			}
			st.ghosts[bi] = append(st.ghosts[bi],
				[2]int32{s.localOf[act.a1], s.localOf[act.b1]})
			ghostTouched[st] = true
		case actGhostClause:
			if st.ghostClauses == nil {
				st.ghostClauses = make(map[int32][]clause)
			}
			st.ghostClauses[bi] = append(st.ghostClauses[bi], clause{
				int(s.localOf[act.a1]), int(s.localOf[act.b1]),
				int(s.localOf[act.a2]), int(s.localOf[act.b2])})
			ghostTouched[st] = true
		}
	}
	for _, st := range s.order {
		if ghostTouched[st] && !s.ghostCheck(st, bi) {
			return s.violate(cur, s.ids[cur], "%s", s.noSerialization(st.client))
		}
	}
	for _, act := range acts {
		if act.kind == actForce && !s.forceIn(cur, act.st, act.a1, act.b1) {
			return false
		}
	}
	for _, st := range s.order {
		if st.conflict && !s.resolve(cur, st) {
			return false
		}
	}
	return true
}

// retireBatch evicts the given global indices from the window as one
// batch: the base order among them is frozen (along with each state's
// own forced units, migrated to ghost edges), their per-object
// bookkeeping is reduced to the retained scalars, and their closure
// rows — plus the bits they occupy in every live predecessor row — are
// released for reuse.
func (s *Session) retireBatch(members []int) {
	s.evicting = true
	sort.Ints(members)
	bi := int32(len(s.batches))
	k := len(members)
	batch := &retiredBatch{members: members, succ: make([]bitset, k)}
	for li, g := range members {
		row := newBitset(k)
		sr := s.base.succ[s.slot(g)]
		for lj, h := range members {
			if lj != li && sr.has(s.slot(h)) {
				row.set(lj)
			}
		}
		batch.succ[li] = row
	}
	s.batches = append(s.batches, batch)
	// Per-state forced units between members are serialization facts the
	// global base never learned; carry them over as ghost edges.
	for _, st := range s.order {
		if !st.base.diverged() {
			continue
		}
		var extra [][2]int32
		for li, g := range members {
			sg := s.slot(g)
			for lj, h := range members {
				if li != lj && !batch.succ[li].has(lj) && st.base.has(sg, s.slot(h)) {
					extra = append(extra, [2]int32{int32(li), int32(lj)})
				}
			}
		}
		if len(extra) > 0 {
			if st.ghosts == nil {
				st.ghosts = make(map[int32][][2]int32)
			}
			st.ghosts[bi] = extra
		}
	}
	for _, g := range members {
		for obj := range s.writes[g] {
			or := s.retiredW[obj]
			if or == nil || or.batch != bi {
				or = &objRetired{batch: bi}
				s.retiredW[obj] = or
			}
			or.writers = append(or.writers, int32(g))
		}
	}
	for li, g := range members {
		t := s.slot(g)
		s.batchOf[g] = bi
		s.localOf[g] = int32(li)
		s.slotOf[g] = -1
		s.globOf[t] = -1
		s.nLive--
		s.retired++
		rec := s.txns[g]
		if rec.Invoked > s.maxRetiredInvoked {
			s.maxRetiredInvoked = rec.Invoked
		}
		for obj := range rec.Reads {
			if obs := s.valueReaders[obj]; len(obs) > 0 {
				live := obs[:0]
				for _, ob := range obs {
					if ob.reader != g {
						live = append(live, ob)
					}
				}
				s.valueReaders[obj] = live
			}
			if rs := s.initReaders[obj]; len(rs) > 0 {
				live := rs[:0]
				for _, r := range rs {
					if r != g {
						live = append(live, r)
					}
				}
				s.initReaders[obj] = live
			}
		}
		for obj := range s.writes[g] {
			ws := s.writersOf[obj]
			live := ws[:0]
			for _, o := range ws {
				if o != g {
					live = append(live, o)
				}
			}
			s.writersOf[obj] = live
		}
		s.txns[g] = nil
		s.writes[g] = nil
		for _, st := range s.order {
			st.base.retire(t) // while the base still holds t's rows
		}
		s.base.retire(t)
		s.model.retire(t)
		for _, st := range s.order {
			if !st.shared && st.model != nil {
				st.model.retire(t)
			}
		}
		s.free = append(s.free, int32(t))
	}
}

// appendBatchWitness emits one retired batch in a total order extending
// its frozen base order, st's ghost units, and st's ghost clauses,
// earliest-appended-first among unconstrained members (deterministic).
func (s *Session) appendBatchWitness(out []model.TxnID, bi int32, st *clientState) []model.TxnID {
	batch := s.batches[bi]
	c, okc := s.batchClosure(bi, st)
	if !okc {
		// Unreachable: ghost units are cycle-checked as they are recorded.
		for _, g := range batch.members {
			out = append(out, s.ids[g])
		}
		return out
	}
	if clauses := st.ghostClauses[bi]; len(clauses) > 0 {
		if m, found := newClauseSolver(c, clauses).solveClosure(); found {
			c = m
		}
	}
	for _, l := range extendClosure(c) {
		out = append(out, s.ids[batch.members[l]])
	}
	return out
}

// checkReadAtomic runs the fracture test for reader (all of whose reads
// have resolved writers) at append index cur: CheckReadAtomic's test, so
// both engines give one reason.
func (s *Session) checkReadAtomic(cur, reader int) bool {
	if reason := fracturedRead(s.txns[reader], s.Initial, s.writer, s.txns, s.writes); reason != "" {
		return s.violate(cur, s.ids[cur], "%s", reason)
	}
	return true
}
