// Package history implements the formal history model of the paper
// (Section 2) and executable consistency checkers: causal consistency
// exactly as in Definition 1, plus serializability, strict serializability
// and read atomicity for characterizing the stronger/weaker systems of
// Table 1.
//
// The checkers assume the paper's "all written values are distinct"
// simplification, which the workloads enforce by construction; under it the
// reads-from relation is uniquely determined and Definition 1 reduces to:
// the causal relation (transitive closure of program orders and reads-from)
// is acyclic, and for every client c there is a linear extension of it in
// which every transaction of c is legal.
//
// Three checking engines implement that search. The production path is
// the incremental Session (session.go): it carries the transitively
// closed partial order and the anti-dependency clause set across
// commits, so a load run is certified as it executes and a violation is
// pinned to its first offending commit with the minimal witness prefix.
// A streaming session (NewStreamingSession) retires decided prefixes and
// has no ceiling; a bounded one (NewSession, and Check, which appends a
// whole history to one) refuses past MaxTxns. The one-shot
// constraint-propagation solver over ordering literals (solver.go, entry
// CheckBatch) re-solves a complete history of at most MaxTxns
// transactions from scratch and serves as the session's differential
// oracle and cost baseline; the two share their read-atomicity test and
// give one Reason for one history. The original exhaustive enumeration
// survives in the tests as their oracle of last resort (≤ 62
// transactions).
package history

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// TxnRecord is one transaction as observed at its client: the values its
// reads returned and the writes it issued.
type TxnRecord struct {
	ID     model.TxnID
	Client string
	Reads  map[string]model.Value
	Writes []model.Write
	// Invoked and Completed are virtual times; Completed < 0 marks a
	// transaction that never completed (it is still included, matching
	// the paper's comm(H) completion of pending writes).
	Invoked, Completed int64
}

// IsReadOnly reports whether the record performed no writes.
func (r *TxnRecord) IsReadOnly() bool { return len(r.Writes) == 0 }

func (r *TxnRecord) String() string {
	s := r.ID.String() + "{"
	objs := make([]string, 0, len(r.Reads))
	for o := range r.Reads {
		objs = append(objs, o)
	}
	sort.Strings(objs)
	for i, o := range objs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("r(%s)%s", o, r.Reads[o])
	}
	for i, w := range r.Writes {
		if i > 0 || len(objs) > 0 {
			s += " "
		}
		s += w.String()
	}
	return s + "}"
}

// History is a multi-client history. Records are appended in per-client
// program order (the order the client invoked them).
type History struct {
	records []*TxnRecord
	byCli   map[string][]*TxnRecord
	initial map[string]model.Value
}

// New creates a history. initial gives the initial value per object
// (model.Bottom assumed for objects not listed).
func New(initial map[string]model.Value) *History {
	h := &History{byCli: make(map[string][]*TxnRecord), initial: make(map[string]model.Value)}
	for k, v := range initial {
		h.initial[k] = v
	}
	return h
}

// Add appends a record; calls for the same client must be in program order.
func (h *History) Add(rec *TxnRecord) {
	h.records = append(h.records, rec)
	h.byCli[rec.Client] = append(h.byCli[rec.Client], rec)
}

// NewRecord converts a protocol result into a transaction record, ready
// for History.Add or Session.Append.
func NewRecord(res *model.Result) *TxnRecord {
	rec := &TxnRecord{
		ID:        res.Txn.ID,
		Client:    res.Txn.ID.Client,
		Reads:     make(map[string]model.Value, len(res.Txn.ReadSet)),
		Writes:    append([]model.Write(nil), res.Txn.Writes...),
		Invoked:   res.Invoked,
		Completed: res.Completed,
	}
	for _, obj := range res.Txn.ReadSet {
		rec.Reads[obj] = res.Value(obj)
	}
	return rec
}

// AddResult converts a protocol result into a record and appends it.
func (h *History) AddResult(res *model.Result) {
	h.Add(NewRecord(res))
}

// Prefix returns a new history over the first n records (in insertion
// order) sharing the receiver's initial values. The records themselves
// are shared, not copied. It panics if n exceeds Len.
func (h *History) Prefix(n int) *History {
	out := New(h.initial)
	for _, rec := range h.records[:n] {
		out.Add(rec)
	}
	return out
}

// Len returns the number of records.
func (h *History) Len() int { return len(h.records) }

// Records returns all records in insertion order.
func (h *History) Records() []*TxnRecord { return h.records }

// Clients returns the client names, sorted.
func (h *History) Clients() []string {
	out := make([]string, 0, len(h.byCli))
	for c := range h.byCli {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ByClient returns client c's records in program order.
func (h *History) ByClient(c string) []*TxnRecord { return h.byCli[c] }

// Initial returns the initial value of obj.
func (h *History) Initial(obj string) model.Value { return h.initial[obj] }

// Initials returns a copy of the initial-value map, e.g. for seeding a
// Session over this history's records.
func (h *History) Initials() map[string]model.Value {
	out := make(map[string]model.Value, len(h.initial))
	for k, v := range h.initial {
		out[k] = v
	}
	return out
}

func (h *History) String() string {
	s := ""
	for _, c := range h.Clients() {
		s += c + ": "
		for i, r := range h.byCli[c] {
			if i > 0 {
				s += " ; "
			}
			s += r.String()
		}
		s += "\n"
	}
	return s
}
