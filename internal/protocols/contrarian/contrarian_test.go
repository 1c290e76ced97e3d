package contrarian_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/protocols/contrarian"
	"repro/internal/protocols/ptest"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, contrarian.New(), ptest.Expect{
		ROTRounds:  2, // snapshot negotiation + reads
		Blocking:   false,
		MultiWrite: false,
		Causal:     true,
	})
}

// TestSnapshotCoversCausalPast: a client that read a fresh value must get
// a snapshot at least as new on its next ROT (monotone reads across its
// transactions).
func TestSnapshotCoversCausalPast(t *testing.T) {
	d := ptest.Deploy(t, contrarian.New(), ptest.Expect{}, 89)
	if res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: "X0", Value: "f0"}), 400_000); !res.OK() {
		t.Fatal("write failed")
	}
	// The writer's next read must observe its own write (dep timestamp
	// raises the snapshot above the write's commit stamp).
	res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 400_000)
	if !res.OK() || res.Value("X0") != "f0" {
		t.Fatalf("writer did not observe own write: %v", res)
	}
	// And any later reader of the same client stays monotone.
	res2 := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0"), 400_000)
	if res2.Value("X0") != "f0" {
		t.Fatalf("monotone reads violated: %v", res2.Values)
	}
}

// TestLoadConformance certifies concurrent closed- and open-loop driver
// sweeps at the claimed consistency level.
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, contrarian.New(), ptest.Expect{LoadTxns: 96})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, contrarian.New(), ptest.Expect{})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, contrarian.New(), ptest.Expect{})
}
