package adversary

import (
	"repro/internal/history"
	"repro/internal/model"
)

// witnessHistory reconstructs the formal history implied by a witness
// execution, exactly as in Lemma 1's proof: the initializing writes, c_w's
// read of the initial values (T_in_r), the write-only transaction Tw, and
// the reader's mixed read-only transaction.
func witnessHistory(v *Verdict) *history.History {
	h := history.New(nil)
	objs := sortedKeys(v.Witness.OldValues)
	// Initializing writes (one client per object).
	for i, obj := range objs {
		cin := initClient(i)
		h.Add(&history.TxnRecord{
			ID:     model.TxnID{Client: cin, Seq: 1},
			Client: cin,
			Writes: []model.Write{{Object: obj, Value: v.Witness.OldValues[obj]}},
		})
	}
	// c_w reads the initial values...
	reads := make(map[string]model.Value, len(objs))
	for _, obj := range objs {
		reads[obj] = v.Witness.OldValues[obj]
	}
	h.Add(&history.TxnRecord{
		ID: model.TxnID{Client: "cw", Seq: 1}, Client: "cw", Reads: reads,
	})
	// ... then writes the new values in one transaction.
	var writes []model.Write
	for _, obj := range objs {
		writes = append(writes, model.Write{Object: obj, Value: v.Witness.NewValues[obj]})
	}
	h.Add(&history.TxnRecord{
		ID: model.TxnID{Client: "cw", Seq: 2}, Client: "cw", Writes: writes,
	})
	// The reader observes the mixed values.
	h.Add(&history.TxnRecord{
		ID: model.TxnID{Client: string(v.Witness.Reader), Seq: 1}, Client: string(v.Witness.Reader),
		Reads: v.Witness.Returned,
	})
	return h
}

// checkCausal returns whether the history is causally consistent.
func checkCausal(h *history.History) bool { return history.CheckCausal(h).OK }

func sortedKeys(m map[string]model.Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// initClient names the initializing client of the i-th object.
func initClient(i int) string {
	return "cin" + string(rune('0'+i%10))
}
