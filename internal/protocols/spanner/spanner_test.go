package spanner_test

import (
	"testing"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/protocols/ptest"
	"repro/internal/protocols/spanner"
	"repro/internal/sim"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, spanner.New(), ptest.Expect{
		ROTRounds:  1,
		Blocking:   true, // safe-time waits
		MultiWrite: true,
		Causal:     true, // strict serializability implies causal
	})
}

// TestStrictSerializability: concurrent transactions under random
// schedules must produce strictly serializable histories — the TrueTime
// commit-wait is what buys this.
func TestStrictSerializability(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		d := ptest.Deploy(t, spanner.New(), ptest.Expect{}, seed*1000)
		h := history.New(d.Initials())
		sched := sim.NewRandom(seed)
		phase := func(invs map[sim.ProcessID]*model.Txn) {
			ids := make(map[sim.ProcessID]model.TxnID)
			for c, txn := range invs {
				ids[c] = d.Invoke(c, txn)
			}
			sim.Run(d.Kernel, sched, func(*sim.Kernel) bool {
				for c := range invs {
					if d.Client(c).Busy() {
						return false
					}
				}
				return true
			}, 400_000)
			for c := range invs {
				res := d.Client(c).Finished(ids[c])
				if res == nil {
					t.Fatalf("seed %d: txn at %s incomplete", seed, c)
				}
				if res.OK() {
					h.AddResult(res)
				}
			}
		}
		phase(map[sim.ProcessID]*model.Txn{
			"c0": model.NewWriteOnly(model.TxnID{},
				model.Write{Object: "X0", Value: model.Value("a0")},
				model.Write{Object: "X1", Value: model.Value("a1")}),
			"c1": model.NewReadOnly(model.TxnID{}, "X0", "X1"),
		})
		phase(map[sim.ProcessID]*model.Txn{
			"c0": model.NewReadOnly(model.TxnID{}, "X0", "X1"),
			"c1": model.NewWriteOnly(model.TxnID{},
				model.Write{Object: "X0", Value: model.Value("b0")},
				model.Write{Object: "X1", Value: model.Value("b1")}),
			"c2": model.NewReadOnly(model.TxnID{}, "X1"),
		})
		phase(map[sim.ProcessID]*model.Txn{
			"c1": model.NewReadOnly(model.TxnID{}, "X0", "X1"),
			"c2": model.NewReadOnly(model.TxnID{}, "X0"),
		})
		if v := history.CheckStrictSerializable(h); !v.OK {
			t.Fatalf("seed %d: not strictly serializable: %s\n%s", seed, v.Reason, h)
		}
	}
}

// TestReadsNeverReturnMixedTransaction: even with adversarial partial
// commit delivery, the safe-time rule prevents a reader from observing a
// half-committed transaction.
func TestReadsNeverReturnMixedTransaction(t *testing.T) {
	d := ptest.Deploy(t, spanner.New(), ptest.Expect{}, 91)
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "n0"}, model.Write{Object: "X1", Value: "n1"}))
	d.Kernel.StepProcess("c0")
	// Deliver prepares everywhere, acks back, commits out — but deliver
	// the commit only at s1.
	for _, s := range []sim.ProcessID{"s0", "s1"} {
		for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: s}) {
			d.Kernel.Deliver(m.ID)
		}
		d.Kernel.StepProcess(s)
	}
	for _, s := range []sim.ProcessID{"s0", "s1"} {
		for _, m := range d.Kernel.InTransitOn(sim.Link{From: s, To: "c0"}) {
			d.Kernel.Deliver(m.ID)
		}
	}
	d.Kernel.StepProcess("c0")
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: "s1"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s1")

	// A reader now probes (spanner reads block): s0
	// still has the prepare pending, so the read at the snapshot must
	// wait for the commit — it cannot return a mixed result. With the
	// commit to s0 frozen forever, the probe must NOT complete.
	res := d.Probe("r0", []string{"X0", "X1"}, []sim.ProcessID{"s0", "s1"})
	if res != nil {
		v0, v1 := res.Value("X0"), res.Value("X1")
		if (v0 == "n0") != (v1 == "n1") {
			t.Fatalf("mixed read despite safe-time rule: %v", res.Values)
		}
	}
}

// TestLoadConformance certifies concurrent closed- and open-loop driver
// sweeps at the claimed consistency level.
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, spanner.New(), ptest.Expect{LoadTxns: 96})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, spanner.New(), ptest.Expect{})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, spanner.New(), ptest.Expect{})
}
