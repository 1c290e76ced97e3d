// Socialnetwork: the workload the paper's introduction motivates —
// read-dominated social-graph traffic where a post and its timeline index
// must update atomically (a multi-object write transaction) while readers
// page through timelines with read-only transactions.
//
// Wren (the N+V+W corner) supports this workload with causal consistency:
// multi-object writes, non-blocking one-value reads — paying one extra
// read round for the stable cutoff. The example runs the workload, checks
// the recorded history against the formal causal-consistency checker
// (Definition 1), and reports latencies.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	// Objects: two user timelines and two post slots, spread over two
	// servers.
	d, err := repro.Deploy("wren", repro.Config{
		Servers: 2, ObjectsPerServer: 2, Clients: 3, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	objs := d.Place.Objects() // X0..X3
	postSlot, timeline := objs[0], objs[3]

	h := history.New(d.Initials())
	readLat := stats.NewCollector()
	writeLat := stats.NewCollector()

	record := func(res *model.Result) {
		if res == nil || !res.OK() {
			log.Fatalf("transaction failed: %v", res)
		}
		h.AddResult(res)
	}

	// Alice posts: the post body and her timeline index update atomically.
	for i := 0; i < 5; i++ {
		post := model.NewWriteOnly(model.TxnID{},
			model.Write{Object: postSlot, Value: model.Value(fmt.Sprintf("post-%d", i))},
			model.Write{Object: timeline, Value: model.Value(fmt.Sprintf("timeline-v%d", i))},
		)
		res := d.RunTxn("c0", post, 400_000)
		record(res)
		writeLat.Add(res.Completed - res.Invoked)

		// Bob reads the timeline and the post — a read-only transaction.
		// Causal consistency guarantees he never sees a timeline entry
		// pointing at a post he cannot see.
		rot := model.NewReadOnly(model.TxnID{}, postSlot, timeline)
		rres := d.RunTxn("c1", rot, 400_000)
		record(rres)
		readLat.Add(rres.Completed - rres.Invoked)

		// Carol reads just the timeline.
		cres := d.RunTxn("c2", model.NewReadOnly(model.TxnID{}, timeline), 400_000)
		record(cres)
		readLat.Add(cres.Completed - cres.Invoked)
	}

	fmt.Println("social workload over wren (N+V+W corner):")
	fmt.Printf("  reads : %s\n", readLat.Summarize())
	fmt.Printf("  writes: %s\n", writeLat.Summarize())

	if v := history.Check(h, "causal"); v.OK {
		fmt.Println("  history is causally consistent (Definition 1 checker)")
	} else {
		log.Fatalf("  CAUSAL VIOLATION: %s", v.Reason)
	}

	// The cost of the W property: reads take 2 rounds instead of 1.
	readHeavy := func(name string) *driver.Report {
		p, err := repro.Lookup(name)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := driver.Run(p, driver.Config{
			Clients: 2, Txns: 40, Mix: workload.ReadHeavy(), Seed: 5,
			Servers: 2, ObjectsPerServer: 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	rep, fast := readHeavy("wren"), readHeavy("copssnow")
	fmt.Printf("\nread-heavy sweep: wren ROT p50 = %dµs (%.1f rounds) vs copssnow ROT p50 = %dµs (%.1f rounds)\n",
		rep.ROT.P50, rep.ROTRounds, fast.ROT.P50, fast.ROTRounds)
	fmt.Println("  — the extra round is Theorem 1's price for multi-object write transactions.")
}
