package history

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func rec(client string, seq int, reads map[string]model.Value, writes ...model.Write) *TxnRecord {
	return &TxnRecord{
		ID:        model.TxnID{Client: client, Seq: seq},
		Client:    client,
		Reads:     reads,
		Writes:    writes,
		Invoked:   0,
		Completed: 1,
	}
}

// paperSetup builds the initial transactions of the paper's proof: T_in0
// writes x_in0 to X0, T_in1 writes x_in1 to X1, then client cw reads both
// initial values (T_in_r) and issues Tw = (w(X0)x0, w(X1)x1).
func paperSetup() *History {
	h := New(nil)
	h.Add(rec("cin0", 1, nil, model.Write{Object: "X0", Value: "xin0"}))
	h.Add(rec("cin1", 1, nil, model.Write{Object: "X1", Value: "xin1"}))
	h.Add(rec("cw", 1, map[string]model.Value{"X0": "xin0", "X1": "xin1"}))
	h.Add(rec("cw", 2, nil, model.Write{Object: "X0", Value: "x0"}, model.Write{Object: "X1", Value: "x1"}))
	return h
}

func TestCausalAcceptsBothOldValues(t *testing.T) {
	h := paperSetup()
	h.Add(rec("cr", 1, map[string]model.Value{"X0": "xin0", "X1": "xin1"}))
	if v := CheckCausal(h); !v.OK {
		t.Fatalf("old/old read rejected: %s", v.Reason)
	}
}

func TestCausalAcceptsBothNewValues(t *testing.T) {
	h := paperSetup()
	h.Add(rec("cr", 1, map[string]model.Value{"X0": "x0", "X1": "x1"}))
	if v := CheckCausal(h); !v.OK {
		t.Fatalf("new/new read rejected: %s", v.Reason)
	}
}

// TestCausalRejectsMixedRead is Lemma 1 of the paper: a reader cannot see
// the new value for one object and the initial value for the other,
// because cw's read of the initial values causally orders T_in before Tw.
func TestCausalRejectsMixedRead(t *testing.T) {
	for _, mixed := range []map[string]model.Value{
		{"X0": "x0", "X1": "xin1"},
		{"X0": "xin0", "X1": "x1"},
	} {
		h := paperSetup()
		h.Add(rec("cr", 1, mixed))
		if v := CheckCausal(h); v.OK {
			t.Fatalf("mixed read %v accepted", mixed)
		}
	}
}

func TestCausalDetectsCycle(t *testing.T) {
	h := New(nil)
	// c1: T1 r(Y)b ; T2 w(X)a      c2: T3 r(X)a ; T4 w(Y)b
	// T4 -> T1 (rf), T1 -> T2 (po), T2 -> T3 (rf), T3 -> T4 (po): cycle.
	h.Add(rec("c1", 1, map[string]model.Value{"Y": "b"}))
	h.Add(rec("c1", 2, nil, model.Write{Object: "X", Value: "a"}))
	h.Add(rec("c2", 1, map[string]model.Value{"X": "a"}))
	h.Add(rec("c2", 2, nil, model.Write{Object: "Y", Value: "b"}))
	if v := CheckCausal(h); v.OK {
		t.Fatal("cyclic causality accepted")
	}
}

func TestCausalAllowsDivergentOrdersOfConcurrentWrites(t *testing.T) {
	// Two concurrent writers; two readers observe them in opposite orders.
	// Causally consistent, but not serializable.
	h := New(map[string]model.Value{"X": "x0"})
	h.Add(rec("w1", 1, nil, model.Write{Object: "X", Value: "a"}))
	h.Add(rec("w2", 1, nil, model.Write{Object: "X", Value: "b"}))
	h.Add(rec("r1", 1, map[string]model.Value{"X": "a"}))
	h.Add(rec("r1", 2, map[string]model.Value{"X": "b"}))
	h.Add(rec("r2", 1, map[string]model.Value{"X": "b"}))
	h.Add(rec("r2", 2, map[string]model.Value{"X": "a"}))
	if v := CheckCausal(h); !v.OK {
		t.Fatalf("divergent concurrent orders rejected by causal: %s", v.Reason)
	}
	if v := CheckSerializable(h); v.OK {
		t.Fatal("divergent concurrent orders accepted by serializability")
	}
}

func TestSerializableSimple(t *testing.T) {
	h := New(map[string]model.Value{"X": "x0"})
	h.Add(rec("w", 1, nil, model.Write{Object: "X", Value: "a"}))
	h.Add(rec("r", 1, map[string]model.Value{"X": "a"}))
	v := CheckSerializable(h)
	if !v.OK {
		t.Fatalf("rejected: %s", v.Reason)
	}
	if len(v.Witness) != 2 {
		t.Fatalf("witness = %v", v.Witness)
	}
}

func TestStrictSerializableRejectsStaleRead(t *testing.T) {
	h := New(map[string]model.Value{"X": "x0"})
	a := rec("w1", 1, nil, model.Write{Object: "X", Value: "a"})
	a.Invoked, a.Completed = 0, 10
	b := rec("w2", 1, nil, model.Write{Object: "X", Value: "b"})
	b.Invoked, b.Completed = 20, 30
	r := rec("r", 1, map[string]model.Value{"X": "a"})
	r.Invoked, r.Completed = 40, 50
	h.Add(a)
	h.Add(b)
	h.Add(r)
	if v := CheckSerializable(h); !v.OK {
		t.Fatalf("serializable rejected: %s", v.Reason)
	}
	if v := CheckStrictSerializable(h); v.OK {
		t.Fatal("stale read accepted by strict serializability")
	}
}

func TestReadAtomicFracturedRead(t *testing.T) {
	mk := func(xv, yv model.Value) *History {
		h := New(map[string]model.Value{"X": "x0", "Y": "y0"})
		w := rec("w", 1, nil, model.Write{Object: "X", Value: "a"}, model.Write{Object: "Y", Value: "b"})
		w.Invoked, w.Completed = 10, 20
		r := rec("r", 1, map[string]model.Value{"X": xv, "Y": yv})
		r.Invoked, r.Completed = 30, 40
		h.Add(w)
		h.Add(r)
		return h
	}
	if v := CheckReadAtomic(mk("a", "b")); !v.OK {
		t.Fatalf("atomic read rejected: %s", v.Reason)
	}
	if v := CheckReadAtomic(mk("x0", "y0")); !v.OK {
		t.Fatalf("all-old read rejected: %s", v.Reason)
	}
	if v := CheckReadAtomic(mk("a", "y0")); v.OK {
		t.Fatal("fractured read (new,old) accepted")
	}
	if v := CheckReadAtomic(mk("x0", "b")); v.OK {
		t.Fatal("fractured read (old,new) accepted")
	}
}

// TestBatchReasonsAreDeterministic: a transaction that breaks the same
// rule on several objects gets one reason from the batch checker, call
// after call, and it is the session's: the first offending object in
// sorted order.
func TestBatchReasonsAreDeterministic(t *testing.T) {
	// Two fractured pairs: the reader sees A from w1 but not its B, and
	// C from w2 but not its D.
	fractured := New(map[string]model.Value{"A": "a0", "B": "b0", "C": "c0", "D": "d0"})
	fractured.Add(rec("w1", 1, nil, model.Write{Object: "A", Value: "a1"}, model.Write{Object: "B", Value: "b1"}))
	fractured.Add(rec("w2", 1, nil, model.Write{Object: "C", Value: "c1"}, model.Write{Object: "D", Value: "d1"}))
	r := rec("r", 1, map[string]model.Value{"A": "a1", "B": "b0", "C": "c1", "D": "d0"})
	r.Invoked, r.Completed = 2, 3
	fractured.Add(r)

	dangling := New(nil)
	dangling.Add(rec("r", 1, map[string]model.Value{"X": "x9", "Y": "y9", "Z": "z9"}))

	initial := New(map[string]model.Value{"X": "x0", "Y": "y0"})
	initial.Add(rec("w", 1, nil, model.Write{Object: "X", Value: "x0"}, model.Write{Object: "Y", Value: "y0"}))

	for _, tc := range []struct {
		name, level string
		h           *History
	}{
		{"two fractured pairs", "read-atomic", fractured},
		{"three dangling reads", "causal", dangling},
		{"two writes of initial values", "causal", initial},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := CheckIncremental(tc.h, tc.level)
			if want.OK {
				t.Fatal("the session accepts the history")
			}
			for i := 0; i < 50; i++ {
				if got := CheckBatch(tc.h, tc.level); got.Reason != want.Reason {
					t.Fatalf("call %d: batch reason %q, session %q", i, got.Reason, want.Reason)
				}
			}
		})
	}
}

func TestDanglingReadRejectedEverywhere(t *testing.T) {
	h := New(nil)
	h.Add(rec("r", 1, map[string]model.Value{"X": "ghost"}))
	for name, check := range map[string]func(*History) Verdict{
		"causal": CheckCausal, "ser": CheckSerializable,
		"strict": CheckStrictSerializable, "ra": CheckReadAtomic,
	} {
		if v := check(h); v.OK {
			t.Fatalf("%s accepted dangling read", name)
		}
	}
}

func TestDuplicateValuesRejected(t *testing.T) {
	h := New(nil)
	h.Add(rec("a", 1, nil, model.Write{Object: "X", Value: "v"}))
	h.Add(rec("b", 1, nil, model.Write{Object: "X", Value: "v"}))
	if v := CheckCausal(h); v.OK {
		t.Fatal("duplicate values accepted")
	}
}

func TestDuplicateTxnIDRejected(t *testing.T) {
	h := New(nil)
	h.Add(rec("a", 1, nil, model.Write{Object: "X", Value: "v1"}))
	h.Add(rec("a", 1, nil, model.Write{Object: "X", Value: "v2"}))
	if v := CheckCausal(h); v.OK {
		t.Fatal("duplicate txn ids accepted")
	}
}

func TestReadYourOwnWriteWithinRMWTxn(t *testing.T) {
	// A transaction that reads X and also writes X: our convention is
	// reads-precede-writes, so the read must see the *previous* value.
	h := New(map[string]model.Value{"X": "x0"})
	h.Add(rec("c", 1, map[string]model.Value{"X": "x0"}, model.Write{Object: "X", Value: "a"}))
	h.Add(rec("c", 2, map[string]model.Value{"X": "a"}))
	if v := CheckCausal(h); !v.OK {
		t.Fatalf("rmw rejected: %s", v.Reason)
	}
	if v := CheckSerializable(h); !v.OK {
		t.Fatalf("rmw rejected by ser: %s", v.Reason)
	}
}

func TestHistoryTooLarge(t *testing.T) {
	h := New(nil)
	for i := 0; i < MaxTxns+1; i++ {
		h.Add(rec("c", i+1, nil, model.Write{Object: "X", Value: model.Value(fmt.Sprintf("v%d", i))}))
	}
	if v := CheckCausal(h); v.OK {
		t.Fatal("oversized history accepted instead of reported")
	}
}

// randomSequentialHistory builds a history by executing randomly generated
// transactions strictly one after another against a single logical store:
// the result is serializable by construction.
func randomSequentialHistory(seed int64, nTxn int) *History {
	rng := seed
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int((rng >> 33) % int64(n))
		if v < 0 {
			v = -v
		}
		return v
	}
	objects := []string{"X", "Y", "Z"}
	clients := []string{"c0", "c1", "c2"}
	state := map[string]model.Value{"X": "i", "Y": "i", "Z": "i"}
	h := New(map[string]model.Value{"X": "i", "Y": "i", "Z": "i"})
	seqs := map[string]int{}
	now := int64(0)
	for i := 0; i < nTxn; i++ {
		c := clients[next(len(clients))]
		seqs[c]++
		r := &TxnRecord{
			ID: model.TxnID{Client: c, Seq: seqs[c]}, Client: c,
			Reads: map[string]model.Value{}, Invoked: now, Completed: now + 1,
		}
		now += 2
		if next(2) == 0 { // read-only over 1-2 objects
			for _, o := range objects[:1+next(2)] {
				r.Reads[o] = state[o]
			}
		} else { // write-only over 1-2 objects
			for _, o := range objects[:1+next(2)] {
				val := model.Value(fmt.Sprintf("v%d-%s", i, o))
				r.Writes = append(r.Writes, model.Write{Object: o, Value: val})
				state[o] = val
			}
		}
		h.Add(r)
	}
	return h
}

// Property: sequential executions satisfy every consistency level, and the
// implication chain strict ⇒ serializable ⇒ causal holds.
func TestSequentialHistoriesSatisfyAllLevels(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		h := randomSequentialHistory(seed, int(n%10)+2)
		st := CheckStrictSerializable(h)
		se := CheckSerializable(h)
		ca := CheckCausal(h)
		ra := CheckReadAtomic(h)
		if !st.OK || !se.OK || !ca.OK || !ra.OK {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: whenever the serializability checker accepts a (possibly
// mutated) history, the causal checker must accept it too.
func TestSerializableImpliesCausal(t *testing.T) {
	f := func(seed int64, n uint8, mutate bool) bool {
		h := randomSequentialHistory(seed, int(n%8)+2)
		if mutate && h.Len() > 2 {
			// Swap one read value for another object's current value to
			// perturb the history; verdicts may change but the
			// implication must not break.
			for _, r := range h.Records() {
				if len(r.Reads) > 0 {
					for o := range r.Reads {
						r.Reads[o] = "i"
						break
					}
					break
				}
			}
		}
		se := CheckSerializable(h)
		ca := CheckCausal(h)
		if se.OK && !ca.OK {
			return false
		}
		st := CheckStrictSerializable(h)
		if st.OK && !se.OK {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWitnessRespectsProgramOrder(t *testing.T) {
	h := paperSetup()
	h.Add(rec("cr", 1, map[string]model.Value{"X0": "x0", "X1": "x1"}))
	v := CheckCausal(h)
	if !v.OK {
		t.Fatalf("rejected: %s", v.Reason)
	}
	pos := map[model.TxnID]int{}
	for i, id := range v.Witness {
		pos[id] = i
	}
	if pos[model.TxnID{Client: "cw", Seq: 1}] > pos[model.TxnID{Client: "cw", Seq: 2}] {
		t.Fatalf("witness violates program order: %v", v.Witness)
	}
}

func TestHistoryString(t *testing.T) {
	h := paperSetup()
	s := h.String()
	if s == "" {
		t.Fatal("empty string rendering")
	}
	if want := "cw"; !contains(s, want) {
		t.Fatalf("rendering missing %q: %s", want, s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
