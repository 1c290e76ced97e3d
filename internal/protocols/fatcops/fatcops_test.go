package fatcops_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/fatcops"
	"repro/internal/protocols/ptest"
	"repro/internal/sim"
	"repro/internal/spec"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, fatcops.New(), ptest.Expect{
		ROTRounds:          1,
		MaxValuesPerObject: 3, // fat responses may stack candidates
		Blocking:           false,
		MultiWrite:         true,
		Causal:             true,
	})
}

// TestForeignValuesMeasured: fat responses carry values for objects the
// server does not store — the general one-value property is violated,
// which is the documented price of the N+O+W corner.
func TestForeignValuesMeasured(t *testing.T) {
	d := ptest.Deploy(t, fatcops.New(), ptest.Expect{}, 59)
	// A multi-object write creates sibling metadata at both servers.
	if res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "f0"}, model.Write{Object: "X1", Value: "f1"}), 200_000); !res.OK() {
		t.Fatal("write failed")
	}
	from := d.Kernel.Trace().Len()
	res := d.RunTxn("c1", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 200_000)
	if !res.OK() {
		t.Fatal("read failed")
	}
	m := spec.MeasureResult(d, from, res)
	if !m.ForeignValues {
		t.Fatalf("fat responses not measured as carrying foreign values: %s", m)
	}
	if m.FastROT() {
		t.Fatal("fatcops measured as fast ROT despite foreign values")
	}
}

// TestSiblingMetadataRepairsMixedRead is the point of the design: even if
// the adversary delays Tw's write at s0, a reader that sees the new X1
// learns the new X0 from the sibling metadata and returns a consistent
// (new, new) pair instead of the forbidden mixed pair.
func TestSiblingMetadataRepairsMixedRead(t *testing.T) {
	d := ptest.Deploy(t, fatcops.New(), ptest.Expect{}, 61)
	if res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 200_000); !res.OK() {
		t.Fatal("setup read failed")
	}
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "n0"}, model.Write{Object: "X1", Value: "n1"}))
	d.Kernel.StepProcess("c0")
	// Deliver the write only to s1.
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: "s1"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s1")

	res := d.Probe("r0", []string{"X0", "X1"}, []sim.ProcessID{"s0", "s1"})
	if res == nil {
		t.Fatal("probe did not complete")
	}
	if res.Value("X1") != "n1" {
		t.Fatalf("reader missed the delivered write: %v", res.Values)
	}
	if res.Value("X0") != "n0" {
		t.Fatalf("sibling metadata did not repair X0: got %q, want n0 (mixed read would violate Lemma 1)", res.Value("X0"))
	}
}

func TestInitialsVisible(t *testing.T) {
	d := ptest.Deploy(t, fatcops.New(), ptest.Expect{}, 67)
	vis := d.VisibleAll("r1", map[string]model.Value{
		"X0": protocol.InitialValue("X0"), "X1": protocol.InitialValue("X1")})
	if !vis.Visible {
		t.Fatalf("initials not visible: %+v", vis)
	}
}

// TestOppositeInstallOrdersRepairedAtomically pins the schedule that used
// to fracture the load suite (seed 5, client c2): two concurrent
// transactions both write {X0, X1}, and the adversary delivers them in
// opposite orders at the two primaries, so the per-object tails disagree
// about which transaction came last. Atomic full-write-set application
// means a reader must still report BOTH objects from a single
// transaction, never a mixed pair.
func TestOppositeInstallOrdersRepairedAtomically(t *testing.T) {
	d := ptest.Deploy(t, fatcops.New(), ptest.Expect{}, 71)
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "a0"}, model.Write{Object: "X1", Value: "a1"}))
	d.Kernel.StepProcess("c0")
	d.Invoke("c1", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "b0"}, model.Write{Object: "X1", Value: "b1"}))
	d.Kernel.StepProcess("c1")
	// s0 installs c0's write then c1's; s1 installs them in the opposite
	// order.
	for _, link := range []sim.Link{
		{From: "c0", To: "s0"}, {From: "c1", To: "s0"},
		{From: "c1", To: "s1"}, {From: "c0", To: "s1"},
	} {
		for _, m := range d.Kernel.InTransitOn(link) {
			d.Kernel.Deliver(m.ID)
		}
		d.Kernel.StepProcess(link.To)
	}
	res := d.Probe("r0", []string{"X0", "X1"}, []sim.ProcessID{"s0", "s1"})
	if res == nil {
		t.Fatal("probe did not complete")
	}
	v0, v1 := res.Value("X0"), res.Value("X1")
	if !(v0 == "a0" && v1 == "a1") && !(v0 == "b0" && v1 == "b1") {
		t.Fatalf("mixed pair from opposite install orders: X0=%v X1=%v", v0, v1)
	}
}

// TestLoadConformance: fatcops must certify clean under concurrent load
// at 2 objects per server. Each client is a
// replica receiving full causal delivery (every write travels with its
// entire transitive past, values included) and applying whole write-sets
// atomically, so its read sequence is causally serializable by
// construction; TestOppositeInstallOrdersRepairedAtomically pins the
// adversarial schedule that used to fracture here.
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, fatcops.New(), ptest.Expect{
		ObjectsPerServer: 2,
		LoadSeeds:        []int64{5},
		LoadTxns:         96,
	})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, fatcops.New(), ptest.Expect{ObjectsPerServer: 2, LoadSeeds: []int64{5}})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, fatcops.New(), ptest.Expect{ObjectsPerServer: 2, LoadSeeds: []int64{5}})
}
