package cops_test

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/ptest"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, cops.New(), ptest.Expect{
		ROTRounds:  1, // happy path; ≤ 2 with repair round
		Blocking:   false,
		MultiWrite: false,
		Causal:     true,
	})
}

// TestSecondRoundRepairsDependencyInversion: X1's new value depends on a
// new X0; if the ROT's optimistic round observes new X1 but old X0, the
// dependency metadata triggers a second round that fetches the newer X0.
func TestSecondRoundRepairsDependencyInversion(t *testing.T) {
	d := ptest.Deploy(t, cops.New(), ptest.Expect{}, 97)

	// Start the ROT and serve its X0 read first (old X0 observed).
	rotID := d.Invoke("r0", model.NewReadOnly(model.TxnID{}, "X0", "X1"))
	d.Kernel.StepProcess("r0")
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "r0", To: "s0"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s0")

	// Meanwhile c0 writes X0 = a0, then X1 = b1 depending on it. The
	// writes run restricted to c0 and the servers so the ROT's pending
	// X1 request stays in transit throughout.
	solo := &sim.RoundRobin{Only: sim.Restrict("c0", "s0", "s1")}
	if res := d.RunTxnWith("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: "X0", Value: "a0"}), solo, 200_000); !res.OK() {
		t.Fatal("write a0 failed")
	}
	if res := d.RunTxnWith("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: "X1", Value: "b1"}), solo, 200_000); !res.OK() {
		t.Fatal("write b1 failed")
	}

	// Now the ROT's X1 read arrives: it returns b1 with a dependency on
	// the new X0, and the client's second round must repair X0.
	sim.Run(d.Kernel, &sim.RoundRobin{}, func(*sim.Kernel) bool { return !d.Client("r0").Busy() }, 200_000)
	res := d.Client("r0").Finished(rotID)
	if res == nil {
		t.Fatal("ROT incomplete")
	}
	if res.Value("X1") == "b1" && res.Value("X0") != "a0" {
		t.Fatalf("dependency inversion not repaired: %v", res.Values)
	}
	if res.Rounds < 2 {
		t.Fatalf("expected a repair round, got rounds=%d values=%v", res.Rounds, res.Values)
	}
}

// TestSecondRoundUnderRandomSchedules reaches the repair round without a
// hand-built schedule: c0 alternates X0 and X1 writes, each depending on
// the one before, while c1 and c2 run ROTs on {X0, X1}, all pipelined
// under a random schedule per seed. Some ROT must see a new X1 beside an
// X0 older than X1's dependency and take a second round, and every
// history must certify causal. The count of two-round ROTs and a digest
// of every result pin the repair path byte for byte.
func TestSecondRoundUnderRandomSchedules(t *testing.T) {
	const seeds, writes, rots = 64, 48, 24
	twoRound := 0
	digest := sha256.New()
	for seed := int64(1); seed <= seeds; seed++ {
		d := ptest.Deploy(t, cops.New(), ptest.Expect{}, seed)
		ids := make(map[sim.ProcessID][]model.TxnID)
		for i := 0; i < writes; i++ {
			w := model.Write{Object: fmt.Sprintf("X%d", i%2), Value: model.Value(fmt.Sprintf("v%d.%d", seed, i))}
			ids["c0"] = append(ids["c0"], d.Invoke("c0", model.NewWriteOnly(model.TxnID{}, w)))
		}
		readers := []sim.ProcessID{"c1", "c2"}
		for i := 0; i < rots; i++ {
			for _, c := range readers {
				ids[c] = append(ids[c], d.Invoke(c, model.NewReadOnly(model.TxnID{}, "X0", "X1")))
			}
		}
		clients := append([]sim.ProcessID{"c0"}, readers...)
		sim.Run(d.Kernel, sim.NewRandom(seed), func(*sim.Kernel) bool {
			for _, c := range clients {
				if d.Client(c).Busy() {
					return false
				}
			}
			return true
		}, 2_000_000)

		h := history.New(d.Initials())
		for _, c := range clients {
			for _, id := range ids[c] {
				res := d.Client(c).Finished(id)
				if !res.OK() {
					t.Fatalf("seed %d: %v did not commit: %v", seed, id, res)
				}
				h.AddResult(res)
				if res.Txn.IsReadOnly() && res.Rounds >= 2 {
					twoRound++
				}
				fmt.Fprintf(digest, "%v %v %d\n", id, res.Values, res.Rounds)
			}
		}
		if v := history.CheckCausal(h); !v.OK {
			t.Fatalf("seed %d: history not causal: %s\n%s", seed, v.Reason, h)
		}
	}
	got := fmt.Sprintf("%x", digest.Sum(nil))[:16]
	t.Logf("two-round ROTs %d of %d, digest %s", twoRound, seeds*rots*2, got)
	if twoRound == 0 {
		t.Fatal("no ROT took the repair round")
	}
	const wantTwoRound, wantDigest = 8, "5db9baf67c2b03b4"
	if twoRound != wantTwoRound || got != wantDigest {
		t.Fatalf("two-round ROTs %d, digest %s; pinned %d, %s", twoRound, got, wantTwoRound, wantDigest)
	}
}

// TestLoadConformance certifies concurrent closed- and open-loop driver
// sweeps at the claimed consistency level.
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, cops.New(), ptest.Expect{LoadTxns: 128})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, cops.New(), ptest.Expect{})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, cops.New(), ptest.Expect{})
}

// TestContextBytesFlatInKeyspace gates what a write's causal context
// costs: bytes allocated per committed transaction on the load-writes
// shape (8 servers, 64 clients, balanced, 20k txns, seed 42) may grow by
// at most 336 B from 2 to 64 objects per server. Copying the whole
// context into every write measured +2425 B (2452 → 4877 B); writes
// sharing its leaves, +269 B (845 → 1114 B once the engine reused its
// message envelopes, 1119 → 1379 B before). The bound is in bytes, not
// a ratio: the same growth reads as a larger ratio whenever the engine
// allocates less per transaction.
func TestContextBytesFlatInKeyspace(t *testing.T) {
	perTxn := func(objects int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := driver.Run(cops.New(), driver.Config{
			Servers: 8, ObjectsPerServer: objects, Clients: 64, Txns: 20_000,
			Mix: workload.Balanced(), Seed: 42, Workers: 1,
		})
		runtime.ReadMemStats(&after)
		if err != nil || rep.Committed != 20_000 {
			t.Fatalf("objects %d: %v, committed %v", objects, err, rep)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(rep.Committed)
	}
	narrow, wide := perTxn(2), perTxn(64)
	t.Logf("bytes per txn: %.0f at 2 objects per server, %.0f at 64 (%+.0f B)", narrow, wide, wide-narrow)
	if wide-narrow > 336 {
		t.Fatalf("bytes per txn grow by %.0f B from 2 to 64 objects per server, bound 336 B", wide-narrow)
	}
}
