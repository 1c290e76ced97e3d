// The original enumeration-based checkers, kept verbatim in spirit as the
// differential-testing oracle for the constraint-propagation solver: both
// paths must agree on every verdict for every history the exhaustive side
// can afford (≤ 62 transactions, its uint64-mask ceiling).
package history

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
)

// maxExhaustiveTxns is the hard ceiling of the enumeration path: state
// masks are single uint64 words.
const maxExhaustiveTxns = 62

// checkExhaustive mirrors Check via the original permutation search. It
// exists for differential testing and fuzzing only; production
// certification goes through the solver.
func checkExhaustive(h *History, level string) Verdict {
	switch level {
	case "read-atomic":
		return CheckReadAtomic(h) // polynomial: one shared implementation
	case "serializable":
		return exhaustiveTotal(h, false)
	case "strict-serializable":
		return exhaustiveTotal(h, true)
	default:
		return exhaustiveCausal(h)
	}
}

// exhaustiveCausal is CheckCausal by enumeration.
func exhaustiveCausal(h *History) Verdict {
	g, masks, errv := buildMasks(h, false)
	if errv != nil {
		return *errv
	}
	if _, isDag := g.acyclic(); !isDag {
		return fail("causal relation is cyclic")
	}
	var lastWitness []model.TxnID
	for _, c := range h.Clients() {
		var checkSet uint64
		any := false
		for _, rec := range h.ByClient(c) {
			checkSet |= 1 << uint(g.index[rec.ID])
			if len(rec.Reads) > 0 {
				any = true
			}
		}
		if !any {
			continue // write-only clients are satisfied by any extension
		}
		order, found := legalFor(g, masks, checkSet)
		if !found {
			return fail("no causal serialization exists for client %s", c)
		}
		lastWitness = g.witness(order)
	}
	return ok(lastWitness)
}

// exhaustiveTotal is Check(Strict)Serializable by enumeration.
func exhaustiveTotal(h *History, realTime bool) Verdict {
	g, masks, errv := buildMasks(h, realTime)
	if errv != nil {
		return *errv
	}
	if _, isDag := g.acyclic(); !isDag {
		if realTime {
			return fail("real-time-augmented dependency relation is cyclic")
		}
		return fail("dependency relation is cyclic")
	}
	order, found := legalFor(g, masks, ^uint64(0))
	if !found {
		if realTime {
			return fail("no strict serialization exists")
		}
		return fail("no serialization exists")
	}
	return ok(g.witness(order))
}

// buildMasks builds the shared graph and converts its predecessor bitsets
// to the uint64 masks the enumeration operates on.
func buildMasks(h *History, realTime bool) (*graph, []uint64, *Verdict) {
	if n := h.Len(); n > maxExhaustiveTxns {
		v := fail("history too large for exhaustive checking: %d > %d transactions", n, maxExhaustiveTxns)
		return nil, nil, &v
	}
	g, errv := build(h, realTime)
	if errv != nil {
		return nil, nil, errv
	}
	masks := make([]uint64, len(g.txns))
	for i := range g.txns {
		g.preds[i].forEach(func(j int) { masks[i] |= 1 << uint(j) })
	}
	return g, masks, nil
}

// legalFor searches for a linear extension of the mask graph in which
// every transaction in checkSet (bitmask) is legal: each of its reads
// returns the value of the last preceding write to that object, or the
// initial value when no write precedes it. Returns the witness order on
// success.
func legalFor(g *graph, preds []uint64, checkSet uint64) ([]int, bool) {
	n := len(g.txns)
	failed := make(map[string]bool)

	lastWrite := make(map[string]model.Value)
	fingerprint := func(mask uint64) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%x|", mask)
		objs := make([]string, 0, len(lastWrite))
		for o := range lastWrite {
			objs = append(objs, o)
		}
		sort.Strings(objs)
		for _, o := range objs {
			b.WriteString(o)
			b.WriteByte('=')
			b.WriteString(string(lastWrite[o]))
			b.WriteByte(';')
		}
		return b.String()
	}

	order := make([]int, 0, n)
	var search func(mask uint64) bool
	search = func(mask uint64) bool {
		if mask == (uint64(1)<<uint(n))-1 {
			return true
		}
		fp := fingerprint(mask)
		if failed[fp] {
			return false
		}
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if mask&bit != 0 || preds[i]&^mask != 0 {
				continue
			}
			t := g.txns[i]
			if checkSet&bit != 0 && !legalHere(g, t, lastWrite) {
				continue
			}
			// Place i.
			saved := make(map[string]model.Value, len(g.writes[i]))
			for obj, val := range g.writes[i] {
				if prev, okPrev := lastWrite[obj]; okPrev {
					saved[obj] = prev
				} else {
					saved[obj] = "\x00absent"
				}
				lastWrite[obj] = val
			}
			order = append(order, i)
			if search(mask | bit) {
				return true
			}
			order = order[:len(order)-1]
			for obj, prev := range saved {
				if prev == "\x00absent" {
					delete(lastWrite, obj)
				} else {
					lastWrite[obj] = prev
				}
			}
		}
		failed[fp] = true
		return false
	}
	if !search(0) {
		return nil, false
	}
	return order, true
}

// legalHere reports whether t's reads are legal given the current
// last-write map (initial values when absent).
func legalHere(g *graph, t *TxnRecord, lastWrite map[string]model.Value) bool {
	for obj, val := range t.Reads {
		want, written := lastWrite[obj]
		if !written {
			want = g.h.Initial(obj)
		}
		if val != want {
			return false
		}
	}
	return true
}
