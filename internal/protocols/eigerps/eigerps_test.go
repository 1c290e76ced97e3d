package eigerps_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/eigerps"
	"repro/internal/protocols/ptest"
	"repro/internal/spec"
)

// eigerps deliberately does NOT run the full conformance suite: its defining
// behaviour is that non-initial writes never become visible in-model (the
// †-rows of Table 1 rely on out-of-band communication the paper's system
// model excludes), so write-then-read freshness checks do not apply.

func TestInitialValuesVisible(t *testing.T) {
	d := ptest.Deploy(t, eigerps.New(), ptest.Expect{}, 151)
	res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 200_000)
	if !res.OK() || res.Value("X0") != protocol.InitialValue("X0") {
		t.Fatalf("initial read = %v", res)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestWritesCompleteButStayInvisible(t *testing.T) {
	d := ptest.Deploy(t, eigerps.New(), ptest.Expect{}, 157)
	w := model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "n0"}, model.Write{Object: "X1", Value: "n1"})
	if res := d.RunTxn("c0", w, 200_000); !res.OK() {
		t.Fatalf("write failed: %v", res)
	}
	d.Settle(200_000)
	// The values never become visible — readers still see the initials.
	vis := d.VisibleAll("r0", map[string]model.Value{
		"X0": protocol.InitialValue("X0"), "X1": protocol.InitialValue("X1")}, true)
	if !vis.Visible {
		t.Fatalf("stale initials not uniformly visible: %+v", vis)
	}
	newVis := d.VisibleAll("r1", map[string]model.Value{"X0": "n0", "X1": "n1"}, true)
	if newVis.Visible {
		t.Fatal("hidden writes became visible")
	}
}

func TestMeasuredFastDespiteWrites(t *testing.T) {
	d := ptest.Deploy(t, eigerps.New(), ptest.Expect{}, 163)
	d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "m0"}, model.Write{Object: "X1", Value: "m1"}), 200_000)
	from := d.Kernel.Trace().Len()
	res := d.RunTxn("c1", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 200_000)
	m := spec.MeasureResult(d, from, res)
	if !m.FastROT() {
		t.Fatalf("eigerps ROT not fast: %s", m)
	}
}

func TestHistoryStaysCausalBecauseReadsAreStale(t *testing.T) {
	// Readers only ever see the initial values, which is trivially
	// causally consistent — the paper's point about these designs: they
	// are "consistent" only because reads can be indefinitely stale.
	d := ptest.Deploy(t, eigerps.New(), ptest.Expect{}, 167)
	d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "s0v"}, model.Write{Object: "X1", Value: "s1v"}), 200_000)
	r := d.RunTxn("c1", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 200_000)
	if r.Value("X0") != protocol.InitialValue("X0") || r.Value("X1") != protocol.InitialValue("X1") {
		t.Fatalf("reader saw non-initial values: %v", r.Values)
	}
}

// TestLoadConformance: eigerps is a theorem victim — concurrent sweeps must
// FAIL certification at its claimed level (fast reads are paid for with
// consistency, exactly as the paper's lower bounds demand).
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, eigerps.New(), ptest.Expect{ViolatesUnderLoad: true, LoadTxns: 96})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, eigerps.New(), ptest.Expect{ViolatesUnderLoad: true})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, eigerps.New(), ptest.Expect{ViolatesUnderLoad: true})
}
