package wren_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/ptest"
	"repro/internal/protocols/wren"
	"repro/internal/sim"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, wren.New(), ptest.Expect{
		ROTRounds:        2, // cutoff round + read round
		Blocking:         false,
		MultiWrite:       true,
		Causal:           true,
		SettleBeforeRead: true, // cutoff gossip must propagate
	})
}

// TestNewValuesInvisibleUntilCutoffAdvances: after Tw commits, a reader
// whose cutoff round happens before the stabilization gossip is delivered
// still reads the OLD values — consistently. This is the visibility
// staleness Wren trades for non-blocking one-value reads.
func TestNewValuesInvisibleUntilCutoffAdvances(t *testing.T) {
	d := ptest.Deploy(t, wren.New(), ptest.Expect{}, 71)
	if res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 400_000); !res.OK() {
		t.Fatal("setup read failed")
	}

	// Run Tw under a restriction that freezes server-to-server gossip:
	// only client→server and server→client messages are delivered.
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "n0"}, model.Write{Object: "X1", Value: "n1"}))
	cl := d.Client("c0")
	for i := 0; i < 10_000 && cl.Busy(); i++ {
		// Deliver only messages touching c0.
		delivered := false
		for _, m := range d.Kernel.InTransit() {
			if m.From == "c0" || m.To == "c0" {
				d.Kernel.Deliver(m.ID)
				delivered = true
			}
		}
		for _, p := range d.Kernel.Processes() {
			if len(d.Kernel.Inbox(p)) > 0 {
				d.Kernel.StepProcess(p)
				delivered = true
			}
		}
		if !delivered {
			if cl.Busy() {
				d.Kernel.StepProcess("c0")
			}
		}
	}
	if cl.Busy() {
		t.Fatal("Tw did not complete")
	}

	// Gossip is still in transit: a fresh reader must see the OLD values
	// for BOTH objects (consistent, just stale) — never a mix.
	res := d.Probe("r0", []string{"X0", "X1"}, []sim.ProcessID{"s0", "s1"})
	if res == nil {
		t.Fatal("frozen probe did not complete — wren reads must be non-blocking")
	}
	old0, old1 := protocol.InitialValue("X0"), protocol.InitialValue("X1")
	v0, v1 := res.Value("X0"), res.Value("X1")
	consistent := (v0 == old0 && v1 == old1) || (v0 == "n0" && v1 == "n1")
	if !consistent {
		t.Fatalf("mixed read under frozen gossip: %v", res.Values)
	}

	// After gossip settles, the new values must be visible.
	d.Settle(400_000)
	vis := d.VisibleAll("r1", map[string]model.Value{"X0": "n0", "X1": "n1"})
	if !vis.Visible {
		t.Fatalf("new values not visible after settle: %+v", vis)
	}
}

func TestReadYourWritesDespiteStaleCutoff(t *testing.T) {
	d := ptest.Deploy(t, wren.New(), ptest.Expect{}, 73)
	// c0 writes and then reads back immediately, before stabilization has
	// necessarily caught up: the client-side cache must supply its own
	// writes.
	if res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "y0"}, model.Write{Object: "X1", Value: "y1"}), 400_000); !res.OK() {
		t.Fatal("write failed")
	}
	res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 400_000)
	if !res.OK() {
		t.Fatal("read failed")
	}
	if res.Value("X0") != "y0" || res.Value("X1") != "y1" {
		t.Fatalf("read-your-writes violated: %v", res.Values)
	}
}

func TestWriteIsTwoPhase(t *testing.T) {
	d := ptest.Deploy(t, wren.New(), ptest.Expect{}, 79)
	res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "z0"}, model.Write{Object: "X1", Value: "z1"}), 400_000)
	if !res.OK() || res.Rounds != 2 {
		t.Fatalf("write rounds = %d, want 2", res.Rounds)
	}
}

// TestLoadConformance certifies concurrent closed- and open-loop driver
// sweeps at the claimed consistency level, at 2 servers and at 4: past 2
// the cutoff (a minimum over servers) used to sit below the later
// servers' initial versions, and the first read returned ⊥.
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, wren.New(), ptest.Expect{LoadTxns: 96})
	ptest.RunLoad(t, wren.New(), ptest.Expect{LoadTxns: 96, Servers: 4})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, wren.New(), ptest.Expect{})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, wren.New(), ptest.Expect{})
}
