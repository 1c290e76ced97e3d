package twopcfast_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/ptest"
	"repro/internal/protocols/twopcfast"
	"repro/internal/sim"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, twopcfast.New(), ptest.Expect{
		ROTRounds:  1,
		Blocking:   false,
		MultiWrite: true,
		// Causal intentionally false: twopcfast is a theorem victim; the
		// adversary package proves its causal claim wrong.
	})
}

// TestAtomicPerServerButNotAcrossServers shows both that 2PC fixes
// naivefast's per-server partial visibility and that it cannot fix the
// cross-server window the theorem exploits.
func TestAtomicPerServerButNotAcrossServers(t *testing.T) {
	d := ptest.Deploy(t, twopcfast.New(), ptest.Expect{}, 31)

	// cw establishes causality (reads initials), then starts Tw.
	if res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 200_000); !res.OK() {
		t.Fatal("setup read failed")
	}
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "n0"}, model.Write{Object: "X1", Value: "n1"}))
	d.Kernel.StepProcess("c0") // prepares go out

	// Deliver both prepares; servers install hidden versions.
	for _, s := range []sim.ProcessID{"s0", "s1"} {
		for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: s}) {
			d.Kernel.Deliver(m.ID)
		}
		d.Kernel.StepProcess(s)
	}
	// Prepared-but-uncommitted: both objects still show the initials.
	vis := d.VisibleAll("r0", map[string]model.Value{
		"X0": protocol.InitialValue("X0"), "X1": protocol.InitialValue("X1")})
	if !vis.Visible {
		t.Fatalf("prepared values leaked before commit: %+v", vis)
	}

	// Deliver prepare acks; client sends commits; deliver only s1's commit.
	for _, s := range []sim.ProcessID{"s0", "s1"} {
		for _, m := range d.Kernel.InTransitOn(sim.Link{From: s, To: "c0"}) {
			d.Kernel.Deliver(m.ID)
		}
	}
	d.Kernel.StepProcess("c0") // commits go out
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: "s1"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s1")

	// The mixed window: s1 committed, s0 not — a fast reader sees it.
	res := d.Probe("r0", []string{"X0", "X1"}, []sim.ProcessID{"s0", "s1"})
	if res == nil {
		t.Fatal("probe did not complete")
	}
	if res.Value("X0") != protocol.InitialValue("X0") || res.Value("X1") != "n1" {
		t.Fatalf("expected mixed read (old X0, new X1), got %v", res.Values)
	}
}

func TestWriteUsesTwoRounds(t *testing.T) {
	d := ptest.Deploy(t, twopcfast.New(), ptest.Expect{}, 37)
	res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "a"}, model.Write{Object: "X1", Value: "b"}), 200_000)
	if !res.OK() {
		t.Fatalf("write failed: %v", res)
	}
	if res.Rounds != 2 {
		t.Fatalf("write rounds = %d, want 2 (prepare + commit)", res.Rounds)
	}
}

// TestLoadConformance: twopcfast is a theorem victim — concurrent sweeps must
// FAIL certification at its claimed level (fast reads are paid for with
// consistency, exactly as the paper's lower bounds demand).
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, twopcfast.New(), ptest.Expect{ViolatesUnderLoad: true, LoadTxns: 96})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, twopcfast.New(), ptest.Expect{ViolatesUnderLoad: true})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, twopcfast.New(), ptest.Expect{ViolatesUnderLoad: true})
}
