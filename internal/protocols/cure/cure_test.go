package cure_test

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/ptest"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, cure.New(), ptest.Expect{
		ROTRounds:  2,
		Blocking:   false, // happy path; parks under pending 2PC, below
		MultiWrite: true,
		Causal:     true,
	})
}

// TestReadParksBehindPendingPrepare: a prepared-but-uncommitted
// transaction below the requested snapshot parks the read; it is served
// once the commit arrives — and with the committed value, never a
// half-applied state.
func TestReadParksBehindPendingPrepare(t *testing.T) {
	d := ptest.Deploy(t, cure.New(), ptest.Expect{}, 139)
	// First a committed write to raise the stable vector.
	if res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "a0"}, model.Write{Object: "X1", Value: "a1"}), 400_000); !res.OK() {
		t.Fatal("first write failed")
	}
	d.Settle(400_000)

	// Second write: deliver prepares, but freeze the commit to s0.
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "b0"}, model.Write{Object: "X1", Value: "b1"}))
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
	d.Kernel.StepProcess("s1") // s1 committed; s0 pending

	// A frozen probe cannot complete against s0 if its snapshot covers
	// the pending write... but the stable vector advertised by the
	// servers excludes it, so the probe reads the PREVIOUS consistent
	// snapshot (a0, a1) — stale, consistent, non-mixed.
	res := d.Probe("r0", []string{"X0", "X1"}, []sim.ProcessID{"s0", "s1"})
	if res != nil {
		v0, v1 := res.Value("X0"), res.Value("X1")
		if (v0 == "b0") != (v1 == "b1") {
			t.Fatalf("mixed read under pending 2PC: %v", res.Values)
		}
	}

	// After the commit is released, the new values become visible.
	d.Settle(400_000)
	vis := d.VisibleAll("r1", map[string]model.Value{"X0": "b0", "X1": "b1"})
	if !vis.Visible {
		t.Fatalf("values invisible after commit released: %+v", vis)
	}
}

func TestWriterReadsOwnWritesImmediately(t *testing.T) {
	d := ptest.Deploy(t, cure.New(), ptest.Expect{}, 149)
	if res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "c0v"}, model.Write{Object: "X1", Value: "c1v"}), 400_000); !res.OK() {
		t.Fatal("write failed")
	}
	res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 400_000)
	if !res.OK() || res.Value("X0") != "c0v" || res.Value("X1") != "c1v" {
		t.Fatalf("writer misses own writes: %v", res)
	}
}

// TestLoadConformance certifies concurrent closed- and open-loop driver
// sweeps at the claimed consistency level.
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, cure.New(), ptest.Expect{LoadTxns: 128})
}

// TestConcurrentOppositeOrderCommitsStayAtomic pins the write-atomicity
// fix the concurrent harness exposed: two multi-server write transactions
// whose prepares and commits are delivered in OPPOSITE orders at the two
// servers (A first at s0, B first at s1) must never be observed
// half-visible — a reader fetching X0 from s0 and X1 from s1 at a
// snapshot covering both gets one transaction's pair, not a mix. The fix
// reads by the uniform vector order (store.SnapshotReadVec) instead of
// per-server install order.
func TestConcurrentOppositeOrderCommitsStayAtomic(t *testing.T) {
	d := ptest.Deploy(t, cure.New(), ptest.Expect{}, 163)
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "a0"}, model.Write{Object: "X1", Value: "a1"}))
	d.Invoke("c1", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "b0"}, model.Write{Object: "X1", Value: "b1"}))
	d.Kernel.StepProcess("c0") // prepares out
	d.Kernel.StepProcess("c1")

	// deliverStep hands every in-transit message on one link to its
	// destination and steps it, so per-link delivery order is exactly
	// the order of these calls.
	deliverStep := func(from, to sim.ProcessID) {
		t.Helper()
		for _, m := range d.Kernel.InTransitOn(sim.Link{From: from, To: to}) {
			d.Kernel.Deliver(m.ID)
			d.Kernel.StepProcess(to)
		}
	}

	// Prepares install in opposite orders: A then B at s0, B then A at s1.
	deliverStep("c0", "s0")
	deliverStep("c1", "s0")
	deliverStep("c1", "s1")
	deliverStep("c0", "s1")
	// Acks back; each client sends its commits.
	deliverStep("s0", "c0")
	deliverStep("s1", "c0")
	deliverStep("s0", "c1")
	deliverStep("s1", "c1")
	// Commits also land in opposite orders.
	deliverStep("c0", "s0")
	deliverStep("c1", "s0")
	deliverStep("c1", "s1")
	deliverStep("c0", "s1")
	if cl := d.Client("c0"); cl.Busy() {
		// Commit acks are still in transit; finish both writers.
		deliverStep("s0", "c0")
		deliverStep("s1", "c0")
		deliverStep("s0", "c1")
		deliverStep("s1", "c1")
	}

	// Let stabilization gossip advance the GSV over both commits, then
	// read across the servers.
	d.Settle(400_000)
	res := d.RunTxn("c2", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 400_000)
	if !res.OK() {
		t.Fatalf("cross-server read failed: %v", res)
	}
	v0, v1 := res.Value("X0"), res.Value("X1")
	pairA := v0 == "a0" && v1 == "a1"
	pairB := v0 == "b0" && v1 == "b1"
	if !pairA && !pairB {
		t.Fatalf("half-visible transaction under opposite-order commits: X0=%s X1=%s", v0, v1)
	}
}

// TestSnapshotArbitrationFractureIsInherent pins the minimal
// reproducer bisected from the cure fracture the grids show (4 servers /
// 16 clients / readheavy / seed 42, first offender at commit 912): at 4
// clients, 2 servers, a 70%-read mix and seed 15 the run deterministically
// produces a 24-transaction history the causal-memory checker rejects
// for client c0 at index 20 (txn c0/6). Re-bisected when the serial
// Workers=0 engine was deleted — the old witness (6 clients / 138 txns /
// seed 6, c3/23 at 135) was a schedule only that engine emitted; this
// one is the smallest over 3–8 clients × seeds 1–60 on the sharded
// schedule, and is the same three-transaction shape: c2/1 = B writes
// X1,X3, c3/1 = A writes X3,X0, c0/2 reads B's X1 beside the initial X0,
// c0/3 reads A's X0, c0/6 reads X3 from B.
//
// The root cause is NOT a read/commit race in the model — it is
// inherent to Cure-style vector-stamped snapshot reads. Two concurrent
// multi-object write transactions A and B with incomparable commit
// vectors are arbitrated by the store's uniform vector order (say
// B > A), but snapshot covering is componentwise LessEq, which is not
// prefix-closed under that order: a snapshot can cover B without
// covering A. A client whose earlier ROT pins B into its past while
// reading another of A's objects from an older writer, and whose later
// ROT covers A, can no longer serialize its reads — A must land after
// the earlier ROT, yet A's write to the object shared with B is masked
// by B, which arbitration orders BEFORE A. Both snapshots are valid
// TCC snapshots (causally closed, transaction-atomic), so Cure's own
// guarantee holds; single-client causal-memory serializability is
// strictly stronger. See DESIGN.md "Cure: snapshot covering vs
// arbitration order" for the worked three-transaction witness.
func TestSnapshotArbitrationFractureIsInherent(t *testing.T) {
	mix := workload.Mix{ReadFraction: 0.7, ReadWidth: 2, WriteWidth: 2, ZipfS: 0.99}
	rep, err := driver.Run(cure.New(), driver.Config{
		Clients: 4, Txns: 24, Mix: mix, Seed: 15, Servers: 2,
		RecordHistory: true, Certify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cert.OK {
		t.Fatal("the pinned cure fracture certified clean; if a store or " +
			"protocol change legitimately closed the snapshot-covering gap, " +
			"update DESIGN.md and retire this reproducer")
	}
	if rep.Cert.FirstViolationID.String() != "c0/6" || rep.Cert.FirstViolation != 20 {
		t.Fatalf("fracture moved: first=%d id=%s (want 20 / c0/6) — the "+
			"schedule is no longer the bisected witness",
			rep.Cert.FirstViolation, rep.Cert.FirstViolationID)
	}
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, cure.New(), ptest.Expect{})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, cure.New(), ptest.Expect{})
}
