package adversary

import (
	"maps"
	"slices"

	"repro/internal/history"
	"repro/internal/model"
)

// witnessHistory reconstructs the formal history implied by a witness
// execution, exactly as in Lemma 1's proof: the initializing writes, c_w's
// read of the initial values (T_in_r), the write-only transaction Tw, and
// the reader's mixed read-only transaction. Run checks that it is not
// causally consistent before it reports the witness.
func witnessHistory(w *Witness) *history.History {
	h := history.New(nil)
	objs := slices.Sorted(maps.Keys(w.OldValues))
	// Initializing writes (one client per object).
	for i, obj := range objs {
		cin := initClient(i)
		h.Add(&history.TxnRecord{
			ID:     model.TxnID{Client: cin, Seq: 1},
			Client: cin,
			Writes: []model.Write{{Object: obj, Value: w.OldValues[obj]}},
		})
	}
	// c_w reads the initial values...
	reads := make(map[string]model.Value, len(objs))
	for _, obj := range objs {
		reads[obj] = w.OldValues[obj]
	}
	h.Add(&history.TxnRecord{
		ID: model.TxnID{Client: "cw", Seq: 1}, Client: "cw", Reads: reads,
	})
	// ... then writes the new values in one transaction.
	var writes []model.Write
	for _, obj := range objs {
		writes = append(writes, model.Write{Object: obj, Value: w.NewValues[obj]})
	}
	h.Add(&history.TxnRecord{
		ID: model.TxnID{Client: "cw", Seq: 2}, Client: "cw", Writes: writes,
	})
	// The reader observes the mixed values.
	h.Add(&history.TxnRecord{
		ID: model.TxnID{Client: string(w.Reader), Seq: 1}, Client: string(w.Reader),
		Reads: w.Returned,
	})
	return h
}

// initClient names the initializing client of the i-th object.
func initClient(i int) string {
	return "cin" + string(rune('0'+i%10))
}
