package cops_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/ptest"
	"repro/internal/sim"
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

func TestRejectsMultiWrite(t *testing.T) {
	d := ptest.Deploy(t, cops.New(), ptest.Expect{}, 101)
	res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "m0"}, model.Write{Object: "X1", Value: "m1"}), 200_000)
	if res.OK() {
		t.Fatal("multi-object write accepted by cops")
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
