package history

import (
	"testing"
	"time"

	"repro/internal/model"
)

var sessionLevels = []string{"causal", "read-atomic", "serializable", "strict-serializable"}

// TestSessionMatchesBatchOnRandomHistories is the incremental agreement
// contract: on seeded random histories mixing legal and illegal reads,
// the Session (fed record by record) and the one-shot batch solver must
// return identical verdicts at every level, in both directions.
func TestSessionMatchesBatchOnRandomHistories(t *testing.T) {
	accepts, refutes := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		n := 2 + int(seed%13) // 2..14 transactions
		h := genDifferential(seed*104729, n)
		for _, level := range sessionLevels {
			got := Check(h, level)
			want := CheckBatch(h, level)
			if got.OK != want.OK {
				t.Fatalf("seed %d level %s: session says OK=%v (%s), batch says OK=%v (%s)\n%s",
					seed, level, got.OK, got.Reason, want.OK, want.Reason, h)
			}
			if got.OK {
				accepts++
				if got.FirstViolation != -1 || got.WitnessPrefix != nil {
					t.Fatalf("seed %d level %s: accepting verdict carries violation fields: %+v",
						seed, level, got)
				}
				if level == "serializable" || level == "strict-serializable" {
					validateTotalWitness(t, h, got.Witness, level == "strict-serializable")
				}
			} else {
				refutes++
			}
		}
	}
	// The corpus must exercise both directions, or agreement is vacuous.
	if accepts < 80 || refutes < 80 {
		t.Fatalf("session differential corpus lost its teeth: %d accepting, %d refuting", accepts, refutes)
	}
}

// TestSessionAgreesOnGeneratorShapes runs the session against the
// synthetic generator output whose verdicts are known by construction.
func TestSessionAgreesOnGeneratorShapes(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, tc := range []struct {
			name string
			h    *History
		}{
			{"serializable", GenSerializable(seed, 48, 8)},
			{"causalonly", GenCausalOnly(seed, 36)},
			{"violating", GenViolating(seed, 40)},
		} {
			for _, level := range sessionLevels {
				got := Check(tc.h, level)
				want := CheckBatch(tc.h, level)
				if got.OK != want.OK {
					t.Fatalf("%s seed %d level %s: session OK=%v, batch OK=%v (%s / %s)",
						tc.name, seed, level, got.OK, want.OK, got.Reason, want.Reason)
				}
			}
		}
	}
}

// TestSessionFirstViolationIsMinimal pins the first-offending-commit
// contract on the refuting corpus: the appended prefix through the first
// violation must refute under the batch checker, the witness prefix must
// name exactly that prefix, and re-feeding the records before it must
// raise no violation.
func TestSessionFirstViolationIsMinimal(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 200 && checked < 60; seed++ {
		n := 4 + int(seed%11)
		h := genDifferential(seed*7919, n)
		for _, level := range []string{"causal", "serializable", "strict-serializable"} {
			sv := Check(h, level)
			if sv.OK {
				continue
			}
			checked++
			if sv.FirstViolation < 0 || sv.FirstViolation >= h.Len() {
				t.Fatalf("seed %d level %s: first violation index %d out of range (n=%d): %s",
					seed, level, sv.FirstViolation, h.Len(), sv.Reason)
			}
			if len(sv.WitnessPrefix) != sv.FirstViolation+1 {
				t.Fatalf("seed %d level %s: witness prefix has %d entries for first violation %d",
					seed, level, len(sv.WitnessPrefix), sv.FirstViolation)
			}
			if sv.FirstViolationID != h.Records()[sv.FirstViolation].ID {
				t.Fatalf("seed %d level %s: first violation ID %s is not record %d",
					seed, level, sv.FirstViolationID, sv.FirstViolation)
			}
			// The minimal prefix must itself refute under the batch path.
			if pv := CheckBatch(h.Prefix(sv.FirstViolation+1), level); pv.OK {
				t.Fatalf("seed %d level %s: prefix through first offending commit %d certifies clean",
					seed, level, sv.FirstViolation)
			}
			// Re-feeding the records before the offending commit must not
			// raise a violation (the session never fires early).
			s := NewSession(h.initial, level, sv.FirstViolation)
			for k := 0; k < sv.FirstViolation; k++ {
				if !s.Append(h.Records()[k]) {
					t.Fatalf("seed %d level %s: session violates at %d on re-feed, first violation was %d",
						seed, level, k, sv.FirstViolation)
				}
			}
		}
	}
	if checked < 30 {
		t.Fatalf("minimality corpus lost its teeth: only %d refutations checked", checked)
	}
}

// TestSessionFullGridWindow certifies a full 2000-transaction concurrent
// history — the bench grid's default cell size — in both directions
// within the per-cell CI budget, the acceptance bar of the incremental
// rework (the batch path alone had to shrink -txns below 512).
func TestSessionFullGridWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(what string, h *History, level string, wantOK bool) SessionVerdict {
		t.Helper()
		start := time.Now()
		sv := Check(h, level)
		elapsed := time.Since(start)
		if sv.OK != wantOK {
			t.Fatalf("%s at %s: OK=%v (want %v): %s", what, level, sv.OK, wantOK, sv.Reason)
		}
		if elapsed > checkerBudget {
			t.Fatalf("%s at %s took %v, budget %v", what, level, elapsed, checkerBudget)
		}
		t.Logf("%s at %s: %v (n=%d, resolves=%d)", what, level, elapsed, h.Len(), sv.Resolves)
		return sv
	}

	accept := GenSerializable(61, 2000, 8)
	run("accepting/causal", accept, "causal", true)
	run("accepting/serializable", accept, "serializable", true)

	// The violating generator plants the offense in its last five
	// transactions, so the session must sustain ~1995 clean incremental
	// appends before refuting — and must name the offender exactly.
	refute := GenViolating(67, 2000)
	sv := run("refuting/causal", refute, "causal", false)
	if sv.FirstViolation < 1995 {
		t.Fatalf("violation planted in the last 5 txns, session reports index %d", sv.FirstViolation)
	}
	if pv := CheckBatch(refute.Prefix(sv.FirstViolation+1), "causal"); pv.OK {
		t.Fatalf("minimal prefix %d certifies clean under batch", sv.FirstViolation+1)
	}
}

// TestSessionCapacityRefusal: appends beyond MaxTxns must refuse with a
// capacity error, not masquerade as a consistency violation.
func TestSessionCapacityRefusal(t *testing.T) {
	s := NewSession(nil, "causal", 64)
	over := false
	for i := 0; i <= MaxTxns; i++ {
		rec := &TxnRecord{
			ID:     model.TxnID{Client: "c0", Seq: i + 1},
			Client: "c0", Invoked: int64(i), Completed: int64(i),
		}
		if !s.Append(rec) {
			over = true
			break
		}
	}
	if !over {
		t.Fatalf("session accepted %d appends past the ceiling", MaxTxns+1)
	}
	sv := s.Finish()
	if sv.OK || sv.FirstViolation != -1 || sv.Appended != MaxTxns {
		t.Fatalf("capacity refusal malformed: %+v", sv)
	}
}

// TestSessionDuplicateIDPrefix: a malformed append (duplicate txn id)
// must honour the witness-prefix contract like every other violation —
// the prefix runs up to AND including the offending commit.
func TestSessionDuplicateIDPrefix(t *testing.T) {
	s := NewSession(nil, "causal", 4)
	a := &TxnRecord{ID: model.TxnID{Client: "c0", Seq: 1}, Client: "c0", Invoked: 0, Completed: 1}
	if !s.Append(a) {
		t.Fatal("first append refused")
	}
	dup := &TxnRecord{ID: model.TxnID{Client: "c0", Seq: 1}, Client: "c0", Invoked: 2, Completed: 3}
	if s.Append(dup) {
		t.Fatal("duplicate id accepted")
	}
	sv := s.Finish()
	if sv.OK || sv.FirstViolation != 1 || sv.FirstViolationID != dup.ID {
		t.Fatalf("duplicate-id verdict malformed: %+v", sv)
	}
	if len(sv.WitnessPrefix) != 2 || sv.WitnessPrefix[1] != dup.ID {
		t.Fatalf("witness prefix must include the offending commit: %v", sv.WitnessPrefix)
	}
}

// TestSessionLatchesAfterViolation: once refuted, later appends are
// ignored and the verdict is stable.
func TestSessionLatchesAfterViolation(t *testing.T) {
	h := GenViolating(71, 24)
	s := NewSession(h.initial, "causal", h.Len())
	stopped := -1
	for k, rec := range h.Records() {
		if !s.Append(rec) {
			stopped = k
			break
		}
	}
	if stopped < 0 {
		t.Fatal("violating history certified clean")
	}
	first := s.Finish()
	if s.Append(h.Records()[0]) {
		t.Fatal("append accepted after the session was sealed")
	}
	again := s.Finish()
	if first.FirstViolation != again.FirstViolation || first.Reason != again.Reason {
		t.Fatalf("verdict not stable: %+v vs %+v", first, again)
	}
}

// TestSessionIncrementalBudget pins the per-client closure cost of the
// incremental path on a wide full-grid cell: 16 program orders over the
// default 2000-transaction window. Before the streaming rework the
// session's per-append closure maintenance blew up with the client
// count, so the ride-along cost drifted to many multiples of a one-shot
// batch solve on exactly this shape. The bar: best-of-three incremental
// wall within 1.5x of one batch wall (the batch solve runs seconds here
// — repeating it would dominate the suite for a denominator that large).
// Wall-clock comparisons flake on loaded machines, so the ratio only
// fails in tandem with an absolute floor — a fast run that overshoots
// the ratio inside the floor is noise, not a regression.
func TestSessionIncrementalBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	h := GenSerializable(61, 2000, 16)

	best := func(f func()) time.Duration {
		min := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); min == 0 || d < min {
				min = d
			}
		}
		return min
	}

	start := time.Now()
	bv := CheckBatch(h, "causal")
	batch := time.Since(start)
	if !bv.OK {
		t.Fatalf("batch refutes the serializable corpus: %s", bv.Reason)
	}
	var sv SessionVerdict
	inc := best(func() { sv = Check(h, "causal") })
	if !sv.OK {
		t.Fatalf("session refutes the serializable corpus: %s", sv.Reason)
	}

	const floor = 250 * time.Millisecond
	if inc > batch*3/2 && inc > floor {
		t.Fatalf("incremental %v vs batch %v: past 1.5x with the %v floor cleared — "+
			"the per-client closure cost regressed", inc, batch, floor)
	}
	t.Logf("16-client 2000-txn causal: incremental %v, batch %v (resolves=%d)", inc, batch, sv.Resolves)
}

// TestSessionJointResolve drives both ends of the joint re-solve on
// four-transaction causal histories. In "joint" a global edge (O's write
// of M, read by t) breaks the clause disjunct t→O the shared model
// committed for T, while A's unit a→O lands in the same append: one joint
// search serves both states, which keep sharing a model that holds each
// one's base. In "fallback" A's unit a→P and B's unit b→Q are each
// consistent with the shared model when they arrive, but the global edges
// Q→a and P→b close a cycle through both, so the joint instance is
// unsatisfiable while each state alone is not: both fall back to private
// resolves and the shared model goes.
func TestSessionJointResolve(t *testing.T) {
	for _, tc := range []struct {
		name     string
		recs     []*TxnRecord
		resolves int
		shared   bool
	}{
		{"joint", []*TxnRecord{
			rec("A", 1, map[string]model.Value{"X": "x0"}),
			rec("C", 1, nil, model.Write{Object: "K", Value: "w1"}),
			rec("T", 1, map[string]model.Value{"K": "w1", "M": "o1"}),
			rec("D", 1, nil, model.Write{Object: "K", Value: "o2"}, model.Write{Object: "M", Value: "o1"},
				model.Write{Object: "X", Value: "ox"}),
		}, 1, true},
		{"fallback", []*TxnRecord{
			rec("A", 1, map[string]model.Value{"X": "x0", "Y": "q1"}),
			rec("B", 1, map[string]model.Value{"Y": "y0", "X": "p1"}),
			rec("C", 1, nil, model.Write{Object: "X", Value: "p1"}),
			rec("D", 1, nil, model.Write{Object: "Y", Value: "q1"}),
		}, 3, false},
	} {
		h := New(map[string]model.Value{"X": "x0", "Y": "y0", "K": "k0", "M": "m0"})
		for _, r := range tc.recs {
			h.Add(r)
		}
		s := NewSession(h.initial, "causal", h.Len())
		for _, r := range h.Records() {
			s.Append(r)
		}
		sv := s.Finish()
		if bv := CheckBatch(h, "causal"); !sv.OK || !bv.OK || sv.Resolves != tc.resolves {
			t.Fatalf("%s: session OK=%v (%s) with %d resolves, batch OK=%v; want both OK, %d resolves",
				tc.name, sv.OK, sv.Reason, sv.Resolves, bv.OK, tc.resolves)
		}
		if (s.model != nil) != tc.shared {
			t.Errorf("%s: shared model kept = %v", tc.name, s.model != nil)
		}
		for _, st := range s.order {
			m := s.modelOf(st)
			if st.shared != tc.shared || m == nil {
				t.Fatalf("%s: state %s shared=%v, model %v", tc.name, st.client, st.shared, m != nil)
			}
			for a := range s.globOf {
				for b := range s.globOf {
					if st.base.has(a, b) && !m.has(a, b) {
						t.Errorf("%s: state %s's model lacks its base edge %d→%d", tc.name, st.client, a, b)
					}
				}
			}
		}
	}
}
