package history

import (
	"testing"

	"repro/internal/model"
)

// seedHistories are the known shapes the fuzzer starts from: the paper's
// §3 counterexample (Lemma 1's mixed read, the witness the adversary
// extracts from naivefast/twopcfast), the one-round fracture shape that
// fails eigerps under load (half a multi-object commit visible), a
// divergent-order history (causal but not serializable), a clean
// accepting history, and three fuzzer-minimized histories in which a
// streaming session that sweeps after every append sees a late read of
// a retired writer.
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

	// A stale read of a version a later batch superseded: c0/5 reads
	// w6 after c0/3, retired in a later batch than w6's writer, wrote
	// w15. Only bind's later-batch refutation decides it.
	laterBatch := New(encInitials())
	laterBatch.Add(rec("c0", 1, 16, 17, nil, model.Write{Object: "A", Value: "w1"}))
	laterBatch.Add(rec("c0", 2, 32, 17, nil, model.Write{Object: "A", Value: "w6"}))
	laterBatch.Add(rec("c1", 1, 48, 17, map[string]model.Value{"A": "w15"}))
	laterBatch.Add(rec("c0", 3, 64, 17, nil, model.Write{Object: "A", Value: "w15"}))
	laterBatch.Add(rec("c0", 4, 80, 17, map[string]model.Value{"A": "w15"}))
	laterBatch.Add(rec("c0", 5, 80, 1, map[string]model.Value{"A": "w6"}))
	out["stale-read-later-batch"] = laterBatch

	// A stale read inside one batch: c0/4 reads w0 after c0/2 wrote w1,
	// and both writers retired together (the dangling reads of w15 keep
	// their readers live). The frozen batch order refutes it at the
	// strict level, through bind's same-batch loop.
	sameBatch := New(encInitials())
	sameBatch.Add(rec("c0", 1, 16, 17, nil, model.Write{Object: "A", Value: "w0"}))
	sameBatch.Add(rec("c0", 2, 32, 17, nil, model.Write{Object: "A", Value: "w1"}))
	sameBatch.Add(rec("c0", 3, 48, 17, map[string]model.Value{"A": "w15"}))
	sameBatch.Add(rec("c1", 1, 64, 17, map[string]model.Value{"A": "w15"}))
	sameBatch.Add(rec("c0", 4, 64, 1, map[string]model.Value{"A": "w0"}))
	out["stale-read-same-batch"] = sameBatch

	// A ghost unit from a late read: c1/1 and c0/1 overlap, so they
	// retire in one batch unordered. c0/3's read of w1 forces c1/1
	// before c0/1 there; c0/4's read of w15 then needs the reverse, which
	// refutes the strict level only if the first unit was recorded.
	ghostUnit := New(encInitials())
	ghostUnit.Add(rec("c1", 1, 16, 17, nil, model.Write{Object: "A", Value: "w15"}))
	ghostUnit.Add(rec("c0", 1, 32, 17, nil, model.Write{Object: "A", Value: "w1"}))
	ghostUnit.Add(rec("c0", 2, 48, 17, map[string]model.Value{"A": "w0"}))
	ghostUnit.Add(rec("c1", 2, 64, 17, map[string]model.Value{"A": "w0"}))
	ghostUnit.Add(rec("c0", 3, 80, 17, map[string]model.Value{"A": "w1"}))
	ghostUnit.Add(rec("c0", 4, 80, 1, map[string]model.Value{"A": "w15"}))
	out["late-read-ghost-unit"] = ghostUnit
	return out
}

// TestSeedHistoriesRoundTripAndVerdicts pins the seed corpus: every seed
// must round-trip through the encoding and carry its intended verdict.
func TestSeedHistoriesRoundTripAndVerdicts(t *testing.T) {
	wantCausal := map[string]bool{
		"lemma1-mixed-read":      false,
		"fractured-commit":       false,
		"divergent-orders":       true,
		"accepting":              true,
		"stale-read-later-batch": false,
		"stale-read-same-batch":  false,
		"late-read-ghost-unit":   false,
	}
	wantSer := map[string]bool{
		"lemma1-mixed-read":      false,
		"fractured-commit":       false,
		"divergent-orders":       false,
		"accepting":              true,
		"stale-read-later-batch": false,
		"stale-read-same-batch":  false,
		"late-read-ghost-unit":   false,
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
