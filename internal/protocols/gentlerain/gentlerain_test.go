package gentlerain_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/gentlerain"
	"repro/internal/protocols/ptest"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, gentlerain.New(), ptest.Expect{
		ROTRounds:    2,    // GST fetch + snapshot reads
		Blocking:     true, // causally-ahead readers park
		MultiWrite:   false,
		Causal:       true,
		ReadAsWriter: true, // GST freshness lags for independent readers
	})
}

func TestIndependentReaderSeesConsistentStaleSnapshot(t *testing.T) {
	d := ptest.Deploy(t, gentlerain.New(), ptest.Expect{}, 113)
	// c0 writes both objects (single-object transactions, X0 then X1).
	if res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: "X0", Value: "g0"}), 400_000); !res.OK() {
		t.Fatal("write g0 failed")
	}
	if res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: "X1", Value: "g1"}), 400_000); !res.OK() {
		t.Fatal("write g1 failed")
	}
	// An independent reader may see stale values (GST lag) but never an
	// inverted pair: g1 (which causally follows g0) without g0.
	res := d.RunTxn("c1", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 400_000)
	if !res.OK() {
		t.Fatal("read failed")
	}
	if res.Value("X1") == "g1" && res.Value("X0") != "g0" {
		t.Fatalf("causal inversion: %v", res.Values)
	}
}

func TestWriterReadsOwnCausalPast(t *testing.T) {
	d := ptest.Deploy(t, gentlerain.New(), ptest.Expect{}, 127)
	if res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: "X1", Value: "h1"}), 400_000); !res.OK() {
		t.Fatal("write failed")
	}
	res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 400_000)
	if !res.OK() || res.Value("X1") != "h1" {
		t.Fatalf("writer did not read own write: %v", res)
	}
	if res.Value("X0") != protocol.InitialValue("X0") {
		t.Fatalf("unexpected X0: %v", res.Values)
	}
}

func TestRejectsMultiWrite(t *testing.T) {
	d := ptest.Deploy(t, gentlerain.New(), ptest.Expect{}, 131)
	res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "m0"}, model.Write{Object: "X1", Value: "m1"}), 400_000)
	if res.OK() {
		t.Fatal("multi-object write accepted")
	}
}

// TestLoadConformance certifies concurrent closed- and open-loop driver
// sweeps at the claimed consistency level.
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, gentlerain.New(), ptest.Expect{LoadTxns: 96})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, gentlerain.New(), ptest.Expect{})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, gentlerain.New(), ptest.Expect{})
}
