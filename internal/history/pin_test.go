package history

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/model"
)

// genDenseWithSides is genDenseSerializable with bursts of concurrency
// left in: a spine of transactions that each read and replace X buries
// the past (so eviction progresses at levels without real-time edges),
// and every fourth round most clients instead run a side transaction on
// an object only that burst uses. Reads return the latest write in
// append order, so the history is serializable by construction — but the
// side transactions of a burst are mutually unordered in the base until
// their clients rejoin the spine, so initial-value reads force per-client
// unit edges (the overlay rows of a causal session diverge from the
// global closure) and value reads thread anti-dependency clauses, which
// the next sweeps then retire.
func genDenseWithSides(seed int64, n, clients int) *History {
	rng := genRNG(seed)
	initial := map[string]model.Value{"X": "i-X"}
	for burst := 0; burst <= n/clients/4; burst++ {
		o := fmt.Sprintf("S%d", burst)
		initial[o] = model.Value("i-" + o)
	}
	h := New(initial)
	state := map[string]model.Value{}
	for o, v := range initial {
		state[o] = v
	}
	seqs := make(map[string]int)
	for i := 0; i < n; i++ {
		c := fmt.Sprintf("c%d", i%clients)
		seqs[c]++
		inv := int64(i * 10)
		rec := &TxnRecord{
			ID: model.TxnID{Client: c, Seq: seqs[c]}, Client: c,
			Invoked: inv, Completed: inv + int64(5+rng.next(40)),
		}
		round := i / clients
		switch o := fmt.Sprintf("S%d", round/4); {
		case round%4 != 1 || rng.next(4) == 0: // spine
			next := model.Value(fmt.Sprintf("x%d", i))
			rec.Reads = map[string]model.Value{"X": state["X"]}
			rec.Writes = []model.Write{{Object: "X", Value: next}}
			state["X"] = next
		case rng.next(3) == 0:
			val := model.Value(fmt.Sprintf("s%d", i))
			rec.Writes = []model.Write{{Object: o, Value: val}}
			state[o] = val
		default:
			rec.Reads = map[string]model.Value{o: state[o]}
		}
		h.Add(rec)
	}
	return h
}

// TestStreamingEvictionPins pins what a streaming session reports on a
// history that evicts while per-client overlays are diverged: several
// sweeps retire batches, the window outgrows the initial 256 slots (every
// closure row widens mid-run), freed slots past the first 64-slot word
// are reused, and forced units between batch members migrate to ghost
// edges. Every field below is a function of the effective closure rows,
// so a change of closure representation must reproduce them exactly.
func TestStreamingEvictionPins(t *testing.T) {
	h := genDenseWithSides(5, 3000, 96)
	for _, tc := range []struct {
		level                                     string
		resolves, retired, window, sweeps, ghosts int
		witness                                   string
	}{
		{"causal", 0, 2689, 414, 22, 410, "76c267f66f2a6ef4"},
		{"serializable", 0, 2689, 414, 22, 0, "76c267f66f2a6ef4"},
	} {
		s := NewStreamingSession(h.initial, tc.level, h.Clients())
		diverged, reused := false, false
		for _, rec := range h.Records() {
			if !s.Append(rec) {
				break
			}
			for _, st := range s.order {
				diverged = diverged || st.base.diverged()
			}
			if t := s.slot(len(s.txns) - 1); t >= 64 && t < len(s.globOf)-1 {
				reused = true // a freed slot past the first word, taken again
			}
		}
		sv := s.Finish()
		if !sv.OK || sv.FirstViolation != -1 || sv.Appended != h.Len() {
			t.Fatalf("%s: OK=%v fv=%d appended=%d: %s", tc.level, sv.OK, sv.FirstViolation, sv.Appended, sv.Reason)
		}
		if len(s.batches) < 3 || sv.PeakWindow <= 256 || !reused {
			t.Fatalf("%s: %d sweeps retired, peak window %d, high-slot reuse %v: the eviction path is not exercised",
				tc.level, len(s.batches), sv.PeakWindow, reused)
		}
		if diverged != (tc.level == "causal") {
			t.Fatalf("%s: overlays diverged = %v", tc.level, diverged)
		}
		sum := sha256.New()
		for _, id := range sv.Witness {
			fmt.Fprintln(sum, id)
		}
		witness := fmt.Sprintf("%x", sum.Sum(nil))[:16]
		ghosts := 0
		for _, st := range s.order {
			for _, edges := range st.ghosts {
				ghosts += len(edges)
			}
		}
		if sv.Resolves != tc.resolves || sv.Retired != tc.retired || sv.PeakWindow != tc.window ||
			len(s.batches) != tc.sweeps || ghosts != tc.ghosts || witness != tc.witness {
			t.Errorf("%s: resolves=%d retired=%d window=%d sweeps=%d ghosts=%d witness=%s, pinned %d %d %d %d %d %s",
				tc.level, sv.Resolves, sv.Retired, sv.PeakWindow, len(s.batches), ghosts, witness,
				tc.resolves, tc.retired, tc.window, tc.sweeps, tc.ghosts, tc.witness)
		}
		if tc.level == "serializable" {
			validateTotalWitness(t, h, sv.Witness, false)
		}
	}
}

// TestBatchCausalWitnessPins pins the batch causal checker's verdicts and
// witnesses (the serialization of the last reading client) over a mixed
// corpus: how CheckCausal gets there may change, what it returns may not.
func TestBatchCausalWitnessPins(t *testing.T) {
	sum := sha256.New()
	accepts := 0
	add := func(h *History) {
		v := CheckCausal(h)
		fmt.Fprintln(sum, v.OK, v.Reason, v.Witness)
		if v.OK {
			accepts++
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		add(genDifferential(seed*104729, 2+int(seed%13)))
	}
	for seed := int64(1); seed <= 6; seed++ {
		add(GenSerializable(seed, 300, 8))
		add(GenCausalOnly(seed, 60))
		add(GenViolating(seed, 64))
	}
	const pinned = "b721a2b7bea65ac7"
	if got := fmt.Sprintf("%x", sum.Sum(nil))[:16]; got != pinned || accepts < 100 {
		t.Fatalf("batch causal verdicts and witnesses digest to %s over %d accepting histories, pinned %s",
			got, accepts, pinned)
	}
}
