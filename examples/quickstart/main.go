// Quickstart: deploy a modeled storage system (COPS-SNOW — the paper's
// only fast-read-only-transaction system), run a few transactions through
// the public API, and verify the fast-read properties hold.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/model"
)

func main() {
	// Deploy 2 servers, 1 object each (the paper's minimal system) and
	// initialize the objects (configuration Q_0).
	d, err := repro.Deploy("copssnow", repro.Config{
		Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A fast read-only transaction: one round, one value per object,
	// non-blocking.
	res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 100_000)
	fmt.Printf("ROT #1: %v (rounds=%d)\n", reads(res), res.Rounds)

	// Single-object writes (COPS-SNOW gives up multi-object write
	// transactions — that is Theorem 1's price for fast reads).
	for i, obj := range []string{"X0", "X1"} {
		w := model.NewWriteOnly(model.TxnID{}, model.Write{
			Object: obj, Value: model.Value(fmt.Sprintf("hello-%d", i)),
		})
		if wres := d.RunTxn("c0", w, 100_000); !wres.OK() {
			log.Fatalf("write failed: %v", wres.Err)
		}
	}
	d.Settle(100_000)

	res = d.RunTxn("c1", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 100_000)
	fmt.Printf("ROT #2: %v (rounds=%d)\n", reads(res), res.Rounds)

	// And the theorem verdict for this protocol: it sacrifices W.
	v, err := repro.RunTheorem("copssnow")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("theorem: %s sacrifices %s — %s\n", v.Protocol, v.Sacrifices, v.Detail)

	// Multi-object writes are rejected:
	mw := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "a"}, model.Write{Object: "X1", Value: "b"}), 100_000)
	fmt.Printf("multi-object write: err=%q\n", mw.Err)
}

// reads keys what res read by object, so it prints as object:value pairs.
func reads(res *model.Result) map[string]model.Value {
	m := make(map[string]model.Value, len(res.Txn.ReadSet))
	for _, obj := range res.Txn.ReadSet {
		m[obj] = res.Value(obj)
	}
	return m
}
