package history

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/model"
)

// genRealTime builds an n-transaction history for the word-operation
// references. Times sit on a coarse grid, so one record's Completed
// often equals another's Invoked, and about one record in six never
// completed (Completed < 0). Records are generated in one serial order
// and every edge follows it, so the graph is acyclic; they are added in
// a random client interleaving, so indices do not follow time. wild
// lets a record complete before its own invocation and read any write,
// later ones included, so its graphs may be cyclic.
func genRealTime(seed int64, n int, wild bool) *History {
	rng := genRNG(seed)
	objects := []string{"X", "Y", "Z"}
	initial := map[string]model.Value{"X": "iX", "Y": "iY", "Z": "iZ"}
	recs := make([]*TxnRecord, n)
	var written [][2]string // object, value: every write, in generation order
	at := int64(0)
	for i := range recs {
		at += int64(rng.next(3))
		r := &TxnRecord{Invoked: at, Completed: at + int64(rng.next(4))}
		if rng.next(6) == 0 {
			r.Completed = -1
		} else if wild && rng.next(8) == 0 && at > 0 {
			r.Completed = at - 1
		}
		if rng.next(2) == 0 {
			obj := objects[rng.next(len(objects))]
			val := fmt.Sprintf("v%d", i)
			r.Writes = []model.Write{{Object: obj, Value: model.Value(val)}}
			written = append(written, [2]string{obj, val})
		}
		recs[i] = r
	}
	seen := 0 // writes a serial read may see: those of earlier records
	for _, r := range recs {
		if rng.next(2) == 0 {
			obj := objects[rng.next(len(objects))]
			r.Reads = map[string]model.Value{obj: initial[obj]}
			pool := written[:seen]
			if wild {
				pool = written
			}
			var cands []string
			for _, w := range pool {
				if w[0] == obj {
					cands = append(cands, w[1])
				}
			}
			if len(cands) > 0 {
				r.Reads[obj] = model.Value(cands[rng.next(len(cands))])
			}
		}
		if len(r.Writes) > 0 {
			seen++
		}
	}
	// Per-client queues in generation order, drained in random order.
	clients := 4
	queues := make([][]*TxnRecord, clients)
	for _, r := range recs {
		c := rng.next(clients)
		r.Client = fmt.Sprintf("c%d", c)
		r.ID = model.TxnID{Client: r.Client, Seq: len(queues[c]) + 1}
		queues[c] = append(queues[c], r)
	}
	h := New(initial)
	for left := n; left > 0; left-- {
		c := rng.next(clients)
		for len(queues[c]) == 0 {
			c = (c + 1) % clients
		}
		h.Add(queues[c][0])
		queues[c] = queues[c][1:]
	}
	return h
}

// refClosure closes g.preds by folding every direct predecessor's row
// and sets the successor rows bit by bit: the reference for
// newOrderClosure.
func refClosure(g *graph, topo []int) (succ, pred []bitset) {
	n := len(g.txns)
	succ, pred = make([]bitset, n), make([]bitset, n)
	for i := range pred {
		succ[i], pred[i] = newBitset(n), newBitset(n)
	}
	for _, i := range topo {
		g.preds[i].forEach(func(j int) {
			pred[i].or(pred[j])
			pred[i].set(j)
		})
	}
	for i := range pred {
		pred[i].forEach(func(j int) { succ[j].set(i) })
	}
	return succ, pred
}

// TestWordOpsMatchReference compares build's real-time rows,
// graph.acyclic's order and newOrderClosure's rows with their
// pair-by-pair references, at and around the 64-bit word boundaries, on
// histories with Completed == Invoked ties and incomplete records.
func TestWordOpsMatchReference(t *testing.T) {
	rowsEqual := func(what string, got, want []bitset) {
		t.Helper()
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s row %d: got %v, reference %v", what, i, got[i], want[i])
			}
		}
	}
	var ties, incomplete, cyclic int
	for _, n := range []int{1, 63, 64, 65, 129} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, wild := range []bool{false, true} {
				h := genRealTime(seed, n, wild)
				name := fmt.Sprintf("n=%d seed=%d wild=%v", n, seed, wild)
				for _, realTime := range []bool{false, true} {
					g, errv := build(h, realTime)
					if errv != nil {
						t.Fatalf("%s: %s", name, errv.Reason)
					}
					ref, _ := build(h, false)
					if realTime {
						refRealTime(ref)
					}
					rowsEqual(name+" preds", g.preds, ref.preds)
					order, dag := g.acyclic()
					refOrder, refDag := refAcyclic(ref)
					if dag != refDag || !slices.Equal(order, refOrder) {
						t.Fatalf("%s: acyclic %v %v, reference %v %v", name, dag, order, refDag, refOrder)
					}
					if !dag {
						if !wild {
							t.Fatalf("%s: serial-order history is cyclic", name)
						}
						cyclic++
						continue
					}
					c := newOrderClosure(g, order)
					succ, pred := refClosure(ref, refOrder)
					rowsEqual(name+" closure pred", c.pred, pred)
					rowsEqual(name+" closure succ", c.succ, succ)
				}
				for _, a := range h.Records() {
					if a.Completed < 0 {
						incomplete++
					}
					for _, b := range h.Records() {
						if a != b && a.Completed == b.Invoked {
							ties++
						}
					}
				}
			}
		}
	}
	if ties == 0 || incomplete == 0 || cyclic == 0 {
		t.Fatalf("generator lost its edge cases: %d ties, %d incomplete, %d cyclic graphs", ties, incomplete, cyclic)
	}
}
