package copssnow_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/copssnow"
	"repro/internal/protocols/ptest"
	"repro/internal/sim"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, copssnow.New(), ptest.Expect{
		ROTRounds:  1,
		Blocking:   false,
		MultiWrite: false,
		Causal:     true,
	})
}

// TestDependencyGatesVisibility: a write whose dependency has not reached
// its server is not made visible until the dependency check completes —
// the server-to-server message pattern the induction of Lemma 3 predicts.
func TestDependencyGatesVisibility(t *testing.T) {
	d := ptest.Deploy(t, copssnow.New(), ptest.Expect{}, 43)

	// c0 reads both objects (so its writes depend on the initials), then
	// writes X1. The write carries a dependency on X0's initial value.
	if res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 200_000); !res.OK() {
		t.Fatal("setup read failed")
	}
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: "X1", Value: "b1"}))
	d.Kernel.StepProcess("c0")
	// Deliver the write to s1 and step it: s1 must now dep-check with s0
	// (X0's initial value is a dependency), keeping b1 invisible.
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: "s1"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s1")

	if len(d.Kernel.InTransitOn(sim.Link{From: "s1", To: "s0"})) == 0 {
		t.Fatal("no dependency-check message from s1 to s0")
	}
	vis := d.VisibleAll("r0", map[string]model.Value{"X1": "b1"})
	if vis.Visible {
		t.Fatal("b1 visible before the dependency check completed")
	}

	// Let the dep-check complete; the value must become visible.
	d.Settle(200_000)
	vis = d.VisibleAll("r0", map[string]model.Value{"X1": "b1"})
	if !vis.Visible {
		t.Fatalf("b1 not visible after settle: %+v", vis)
	}
}

// TestOldReaderExclusion: a ROT that read an old version of X0 must never
// see a later write to X1 that depends on a newer X0 (the COPS-SNOW
// mechanism).
func TestOldReaderExclusion(t *testing.T) {
	d := ptest.Deploy(t, copssnow.New(), ptest.Expect{}, 47)

	// A long-running ROT (r0's txn) reads X0 = initial first. We model the
	// "simultaneous" ROT by probing its first half manually: invoke the
	// ROT at r0, deliver only the X0 read.
	rotID := d.Invoke("r0", model.NewReadOnly(model.TxnID{}, "X0", "X1"))
	d.Kernel.StepProcess("r0")
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "r0", To: "s0"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s0") // X0 read served and recorded; X1 request still in transit
	// Hold the X1 request on a cut link, or the writes' RunTxn would
	// deliver it before b1 exists.
	cut := sim.Fault{Kind: sim.FaultCut, From: []sim.ProcessID{"r0"}, To: []sim.ProcessID{"s1"}}
	d.Kernel.ApplyFault(cut)

	// Meanwhile c0 writes X0 = a0, then X1 = b1 (depending on X0 = a0).
	if res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: "X0", Value: "a0"}), 200_000); !res.OK() {
		t.Fatal("write a0 failed")
	}
	if res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: "X1", Value: "b1"}), 200_000); !res.OK() {
		t.Fatal("write b1 failed")
	}
	d.Settle(200_000)
	cut.Kind = sim.FaultHeal
	d.Kernel.ApplyFault(cut)

	// Now the ROT's X1 read arrives: because the ROT read the OLD X0, it
	// must not see b1 (which depends on the NEW X0).
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "r0", To: "s1"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s1")
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "s1", To: "r0"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("r0")

	cl := d.Client("r0")
	if cl.Busy() {
		t.Fatal("ROT did not complete")
	}
	res := cl.Finished(rotID)
	if res.Value("X0") != protocol.InitialValue("X0") {
		t.Fatalf("ROT read X0 = %q, want initial", res.Value("X0"))
	}
	if res.Value("X1") == "b1" {
		t.Fatalf("old reader saw dependent write b1: %v — causal inversion", res.Values)
	}
}

// TestCopsSnowThreeHopChainGap pins a known causality gap on a three-hop
// chain. ROT r0 reads X0's initial value while its X2 read is held on a
// cut; meanwhile c0 writes X0=a0, c1 reads a0 and writes X1=m1, and c2
// reads m1 and writes X2=b2. b2's dependency check asks only for the old
// readers of X1, which r0 never read, so b2 is not hidden from r0 and the
// ROT returns X0 initial with X2=b2: no causal serialization has that
// read. The test asserts the mixed read as it happens today; a transitive
// readers check flips it, and this test then asserts the causal read.
func TestCopsSnowThreeHopChainGap(t *testing.T) {
	d := ptest.Deploy(t, copssnow.New(), ptest.Expect{Servers: 3}, 47)

	rotID := d.Invoke("r0", model.NewReadOnly(model.TxnID{}, "X0", "X2"))
	d.Kernel.StepProcess("r0")
	cut := sim.Fault{Kind: sim.FaultCut, From: []sim.ProcessID{"r0"}, To: []sim.ProcessID{"s2"}}
	d.Kernel.ApplyFault(cut)
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "r0", To: "s0"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s0") // X0 read served and recorded; X2 request held

	read := func(c sim.ProcessID, obj string, want model.Value) {
		t.Helper()
		if res := d.RunTxn(c, model.NewReadOnly(model.TxnID{}, obj), 200_000); !res.OK() || res.Value(obj) != want {
			t.Fatalf("%s read %s = %v, want %s", c, obj, res, want)
		}
	}
	write := func(c sim.ProcessID, obj string, v model.Value) {
		t.Helper()
		if res := d.RunTxn(c, model.NewWriteOnly(model.TxnID{}, model.Write{Object: obj, Value: v}), 200_000); !res.OK() {
			t.Fatalf("%s write %s=%s failed", c, obj, v)
		}
	}
	write("c0", "X0", "a0")
	read("c1", "X0", "a0")
	write("c1", "X1", "m1")
	read("c2", "X1", "m1")
	write("c2", "X2", "b2")
	d.Settle(200_000)
	cut.Kind = sim.FaultHeal
	d.Kernel.ApplyFault(cut)
	d.Settle(200_000)

	cl := d.Client("r0")
	if cl.Busy() {
		t.Fatal("ROT did not complete")
	}
	res := cl.Finished(rotID)
	if res.Value("X0") != protocol.InitialValue("X0") || res.Value("X2") != "b2" {
		t.Fatalf("ROT read %v, want the mixed read X0 initial, X2=b2 (gap closed? assert the causal read now)", res.Values)
	}
}

// TestLoadConformance certifies concurrent closed- and open-loop driver
// sweeps at the claimed consistency level.
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, copssnow.New(), ptest.Expect{LoadTxns: 96})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, copssnow.New(), ptest.Expect{})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, copssnow.New(), ptest.Expect{})
}
