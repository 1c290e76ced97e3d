package naivefast

import (
	"testing"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/ptest"
	"repro/internal/sim"
)

func deploy(t *testing.T) *protocol.Deployment {
	t.Helper()
	d := protocol.Deploy(New(), protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 1})
	if err := d.InitAll(100_000); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInitAndReadBack(t *testing.T) {
	d := deploy(t)
	res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 100_000)
	if !res.OK() {
		t.Fatalf("read failed: %v", res)
	}
	if res.Value("X0") != protocol.InitialValue("X0") || res.Value("X1") != protocol.InitialValue("X1") {
		t.Fatalf("read wrong initials: %v", res.Values)
	}
}

func TestWriteThenRead(t *testing.T) {
	d := deploy(t)
	w := model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "a"}, model.Write{Object: "X1", Value: "b"})
	if res := d.RunTxn("c0", w, 100_000); !res.OK() {
		t.Fatalf("write failed: %v", res)
	}
	r := d.RunTxn("c1", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 100_000)
	if r.Value("X0") != "a" || r.Value("X1") != "b" {
		t.Fatalf("read after write = %v", r.Values)
	}
}

func TestOneRoundROT(t *testing.T) {
	d := deploy(t)
	res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 100_000)
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

// TestMixedVisibilityUnderAdversary shows the protocol's flaw directly: if
// the adversary delivers Tw's write to s1 but not to s0, a fresh reader
// sees the new X1 with the old X0 — the mixed read Lemma 1 forbids.
func TestMixedVisibilityUnderAdversary(t *testing.T) {
	d := deploy(t)
	// cw reads the initial values first (establishes causality, as in the
	// paper's C0 construction).
	if res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 100_000); !res.OK() {
		t.Fatal("setup read failed")
	}
	// Invoke Tw but deliver only the write to s1.
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "x0new"}, model.Write{Object: "X1", Value: "x1new"}))
	d.Kernel.StepProcess("c0") // emits both write requests
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: "s1"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s1")

	res := d.Probe("r0", []string{"X0", "X1"}, []sim.ProcessID{"s0", "s1"}, true)
	if res == nil {
		t.Fatal("probe did not complete")
	}
	if res.Value("X0") != protocol.InitialValue("X0") || res.Value("X1") != "x1new" {
		t.Fatalf("expected mixed read (old X0, new X1), got %v", res.Values)
	}
}

func TestVisibilityProbeBattery(t *testing.T) {
	d := deploy(t)
	want := map[string]model.Value{"X0": protocol.InitialValue("X0"), "X1": protocol.InitialValue("X1")}
	vis := d.VisibleAll("r0", want, true)
	if !vis.Visible {
		t.Fatalf("initial values not visible: %+v", vis)
	}
	// New values are not visible before Tw runs.
	vis = d.VisibleAll("r0", map[string]model.Value{"X0": "nope", "X1": "nope"}, true)
	if vis.Visible {
		t.Fatal("unwritten values reported visible")
	}
	if vis.Counterexample == nil {
		t.Fatal("no counterexample probe recorded")
	}
}

func TestProbeDoesNotDisturbConfiguration(t *testing.T) {
	d := deploy(t)
	before := d.Kernel.Trace().Len()
	d.Probe("r0", []string{"X0"}, []sim.ProcessID{"s0"}, true)
	if d.Kernel.Trace().Len() != before {
		t.Fatal("probe mutated the original kernel")
	}
	if d.Client("r0").Busy() {
		t.Fatal("probe left original reader busy")
	}
}

func TestClientCloneIndependence(t *testing.T) {
	d := deploy(t)
	d.Invoke("c0", model.NewReadOnly(model.TxnID{}, "X0"))
	snap := d.Kernel.Snapshot()
	// Run the original to completion.
	cl := d.Client("c0")
	sim.Run(d.Kernel, &sim.RoundRobin{}, func(*sim.Kernel) bool { return !cl.Busy() }, 100_000)
	// The clone's client must still be busy.
	if !snap.Process("c0").(protocol.Client).Busy() {
		t.Fatal("clone client shares state with original")
	}
}

func TestRejectsNothing(t *testing.T) {
	// naivefast claims multi-write support: multi-object writes succeed.
	d := deploy(t)
	res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "m0"}, model.Write{Object: "X1", Value: "m1"}), 100_000)
	if !res.OK() {
		t.Fatalf("multi-write rejected: %v", res.Err)
	}
}

func TestReadWriteTxn(t *testing.T) {
	d := deploy(t)
	rw := &model.Txn{ReadSet: []string{"X1"}, Writes: []model.Write{{Object: "X0", Value: "rw0"}}}
	res := d.RunTxn("c0", rw, 100_000)
	if !res.OK() || res.Value("X1") != protocol.InitialValue("X1") {
		t.Fatalf("read-write txn = %v", res)
	}
	r := d.RunTxn("c1", model.NewReadOnly(model.TxnID{}, "X0"), 100_000)
	if r.Value("X0") != "rw0" {
		t.Fatalf("write part not applied: %v", r.Values)
	}
}

// TestDroppedWriteDetectedByChecker is a failure-injection test: the
// paper's links never lose messages, but if one write of a multi-object
// transaction is dropped, the resulting permanent mixed state produces a
// history the Definition 1 checker rejects — evidence the checker catches
// real anomalies, not just the adversary's constructions.
func TestDroppedWriteDetectedByChecker(t *testing.T) {
	d := deploy(t)
	// Establish causality: c0 reads the initials first.
	setup := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 100_000)
	if !setup.OK() {
		t.Fatal("setup read failed")
	}
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "d0"}, model.Write{Object: "X1", Value: "d1"}))
	d.Kernel.StepProcess("c0")
	// Drop the write to s0; deliver the one to s1.
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: "s0"}) {
		if !d.Kernel.DropInTransit(m.ID) {
			t.Fatal("drop failed")
		}
	}
	d.Settle(100_000)

	r := d.RunTxn("c1", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 100_000)
	if r.Value("X1") != "d1" || r.Value("X0") == "d0" {
		t.Fatalf("expected permanently mixed state, got %v", r.Values)
	}

	h := history.New(d.Initials())
	h.AddResult(setup)
	// The write transaction "completed" from the system's perspective is
	// moot (the client never got s0's ack) — record it as comm(H) does,
	// i.e. completed.
	h.Add(&history.TxnRecord{
		ID: model.TxnID{Client: "c0", Seq: 2}, Client: "c0",
		Writes: []model.Write{{Object: "X0", Value: "d0"}, {Object: "X1", Value: "d1"}},
	})
	h.AddResult(r)
	if v := history.CheckCausal(h); v.OK {
		t.Fatal("checker accepted the lost-write anomaly")
	}
}

// TestLoadConformance: naivefast is a theorem victim — concurrent sweeps
// must FAIL certification at its claimed level (fast reads are paid for
// with consistency, exactly as the paper's lower bounds demand).
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, New(), ptest.Expect{ViolatesUnderLoad: true, LoadTxns: 96})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, New(), ptest.Expect{ViolatesUnderLoad: true})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, New(), ptest.Expect{ViolatesUnderLoad: true})
}
