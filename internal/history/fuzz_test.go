package history

import (
	"testing"

	"repro/internal/model"
)

// seedHistories are the known shapes the fuzzer starts from: the paper's
// §3 counterexample (Lemma 1's mixed read, the witness the adversary
// extracts from naivefast/twopcfast), the one-round fracture shape that
// fails eigerps under load (half a multi-object commit visible), a
// divergent-order history (causal but not serializable), and a clean
// accepting history.
func seedHistories() map[string]*History {
	rec := func(client string, seq int, inv, dur int64, reads map[string]model.Value, writes ...model.Write) *TxnRecord {
		return &TxnRecord{
			ID: model.TxnID{Client: client, Seq: seq}, Client: client,
			Reads: reads, Writes: writes, Invoked: inv, Completed: inv + dur,
		}
	}
	out := map[string]*History{}

	// Lemma 1: cin writes A, c1 reads it with B's initial, then writes
	// both; c2's mixed read (new A, initial B) has no causal
	// serialization.
	lemma1 := New(encInitials())
	lemma1.Add(rec("c0", 1, 0, 2, nil, model.Write{Object: "A", Value: "w0"}))
	lemma1.Add(rec("c1", 1, 2, 2, map[string]model.Value{"A": "w0", "B": "iB"}))
	lemma1.Add(rec("c1", 2, 4, 2, nil, model.Write{Object: "A", Value: "w1"}, model.Write{Object: "B", Value: "w2"}))
	lemma1.Add(rec("c2", 1, 6, 2, map[string]model.Value{"A": "w1", "B": "iB"}))
	out["lemma1-mixed-read"] = lemma1

	// The naivefast/twopcfast/eigerps load fracture: one multi-object
	// write, a reader sees half of it.
	fractured := New(encInitials())
	fractured.Add(rec("c0", 1, 0, 4, nil, model.Write{Object: "C", Value: "w3"}, model.Write{Object: "D", Value: "w4"}))
	fractured.Add(rec("c1", 1, 1, 2, map[string]model.Value{"C": "w3", "D": "iD"}))
	out["fractured-commit"] = fractured

	// Divergent observation orders: causal, not serializable.
	diverge := New(encInitials())
	diverge.Add(rec("c0", 1, 0, 9, nil, model.Write{Object: "A", Value: "w5"}))
	diverge.Add(rec("c1", 1, 1, 9, nil, model.Write{Object: "A", Value: "w6"}))
	diverge.Add(rec("c2", 1, 2, 1, map[string]model.Value{"A": "w5"}))
	diverge.Add(rec("c3", 1, 2, 1, map[string]model.Value{"A": "w6"}))
	diverge.Add(rec("c2", 2, 4, 1, map[string]model.Value{"A": "w6"}))
	diverge.Add(rec("c3", 2, 4, 1, map[string]model.Value{"A": "w5"}))
	out["divergent-orders"] = diverge

	// Clean accepting history.
	accept := New(encInitials())
	accept.Add(rec("c0", 1, 0, 2, nil, model.Write{Object: "A", Value: "w7"}, model.Write{Object: "B", Value: "w8"}))
	accept.Add(rec("c1", 1, 3, 2, map[string]model.Value{"A": "w7", "B": "w8"}))
	accept.Add(rec("c1", 2, 6, 2, nil, model.Write{Object: "B", Value: "w9"}))
	accept.Add(rec("c2", 1, 9, 2, map[string]model.Value{"B": "w9"}))
	out["accepting"] = accept
	return out
}

// TestSeedHistoriesRoundTripAndVerdicts pins the seed corpus: every seed
// must round-trip through the encoding and carry its intended verdict.
func TestSeedHistoriesRoundTripAndVerdicts(t *testing.T) {
	wantCausal := map[string]bool{
		"lemma1-mixed-read": false,
		"fractured-commit":  false,
		"divergent-orders":  true,
		"accepting":         true,
	}
	wantSer := map[string]bool{
		"lemma1-mixed-read": false,
		"fractured-commit":  false,
		"divergent-orders":  false,
		"accepting":         true,
	}
	for name, h := range seedHistories() {
		data, err := EncodeHistory(h)
		if err != nil {
			t.Fatalf("%s does not encode: %v", name, err)
		}
		rt := DecodeHistory(data)
		if rt.String() != h.String() {
			t.Fatalf("%s round-trip mismatch:\noriginal:\n%srestored:\n%s", name, h, rt)
		}
		if got := CheckCausal(h); got.OK != wantCausal[name] {
			t.Fatalf("%s: causal OK=%v, want %v (%s)", name, got.OK, wantCausal[name], got.Reason)
		}
		if got := CheckSerializable(h); got.OK != wantSer[name] {
			t.Fatalf("%s: serializable OK=%v, want %v (%s)", name, got.OK, wantSer[name], got.Reason)
		}
	}
}

// FuzzCheck feeds mutated encoded histories to every checker level and
// cross-checks three verdicts: the session (Check), the batch solver
// (CheckBatch) and the exhaustive oracle must agree, with the strict ⇒
// serializable ⇒ causal implication chain, valid witnesses on
// acceptance, and no panics on malformed inputs. CI runs a short
// -fuzztime smoke; longer local runs dig deeper.
func FuzzCheck(f *testing.F) {
	for _, h := range seedHistories() {
		data, err := EncodeHistory(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := DecodeHistory(data)
		if h.Len() == 0 {
			return
		}
		verdicts := map[string]Verdict{}
		for _, level := range []string{"causal", "serializable", "strict-serializable"} {
			got := Check(h, level)
			batch := CheckBatch(h, level)
			want := checkExhaustive(h, level)
			if got.OK != want.OK || batch.OK != want.OK {
				t.Fatalf("level %s: session OK=%v (%s), batch OK=%v (%s), exhaustive OK=%v (%s)\n%s",
					level, got.OK, got.Reason, batch.OK, batch.Reason, want.OK, want.Reason, h)
			}
			if got.OK && level != "causal" {
				validateTotalWitness(t, h, got.Witness, level == "strict-serializable")
				validateTotalWitness(t, h, batch.Witness, level == "strict-serializable")
			}
			verdicts[level] = got.Verdict
		}
		if verdicts["strict-serializable"].OK && !verdicts["serializable"].OK {
			t.Fatalf("strict accepted but serializable refuted\n%s", h)
		}
		if verdicts["serializable"].OK && !verdicts["causal"].OK {
			t.Fatalf("serializable accepted but causal refuted\n%s", h)
		}
		Check(h, "read-atomic") // must not panic
	})
}
