package ramp_test

import (
	"testing"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/protocols/ptest"
	"repro/internal/protocols/ramp"
	"repro/internal/sim"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, ramp.New(), ptest.Expect{
		ROTRounds:  1, // happy path; 2 with repair
		Blocking:   false,
		MultiWrite: true,
		Causal:     false, // RAMP guarantees read atomicity, not causality
	})
}

// TestRepairRoundFixesFracturedRead: commit delivered at s1 only; the ROT
// sees new X1 whose metadata names X0; the repair round fetches the
// prepared-but-uncommitted X0 version by writer, producing an atomic pair.
func TestRepairRoundFixesFracturedRead(t *testing.T) {
	d := ptest.Deploy(t, ramp.New(), ptest.Expect{}, 109)
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "n0"}, model.Write{Object: "X1", Value: "n1"}))
	d.Kernel.StepProcess("c0")
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
	d.Kernel.StepProcess("c0") // commits out
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: "s1"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s1") // s1 committed; s0 still prepared-only

	// A frozen probe freezes the commit to s0 forever: the reader must
	// still return an ATOMIC pair thanks to the by-writer repair round.
	res := d.Probe("r0", []string{"X0", "X1"}, []sim.ProcessID{"s0", "s1"}, true)
	if res == nil {
		t.Fatal("probe did not complete — RAMP reads are non-blocking")
	}
	v0, v1 := res.Value("X0"), res.Value("X1")
	if (v0 == "n0") != (v1 == "n1") {
		t.Fatalf("fractured read escaped RAMP repair: %v", res.Values)
	}
	if v1 == "n1" && v0 != "n0" {
		t.Fatalf("saw new X1 without repaired X0: %v", res.Values)
	}
}

// TestReadAtomicityUnderRandomSchedules: RAMP histories satisfy read
// atomicity even when causal consistency is not guaranteed.
func TestReadAtomicityUnderRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		d := ptest.Deploy(t, ramp.New(), ptest.Expect{}, seed*77)
		h := history.New(d.Initials())
		sched := sim.NewRandom(seed * 3)
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
				if res := d.Client(c).Finished(ids[c]); res.OK() {
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
			"c2": model.NewReadOnly(model.TxnID{}, "X0", "X1"),
		})
		if v := history.CheckReadAtomic(h); !v.OK {
			t.Fatalf("seed %d: read atomicity violated: %s\n%s", seed, v.Reason, h)
		}
	}
}

// TestLoadConformance certifies concurrent closed- and open-loop driver
// sweeps at the claimed consistency level.
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, ramp.New(), ptest.Expect{LoadTxns: 96})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, ramp.New(), ptest.Expect{})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, ramp.New(), ptest.Expect{})
}
