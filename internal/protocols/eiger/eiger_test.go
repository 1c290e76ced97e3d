package eiger_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/protocols/eiger"
	"repro/internal/protocols/ptest"
	"repro/internal/sim"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, eiger.New(), ptest.Expect{
		ROTRounds:  1, // happy path; retries under pending commits
		Blocking:   false,
		MultiWrite: true,
		Causal:     true,
	})
}

// TestRetryResolvesPendingCommit: the ROT races a write transaction whose
// commit reaches s1 before s0. Round 1 observes new X1 and old X0 with a
// pending marker; the client must keep re-polling (not return the mixed
// pair) until the commit lands at s0.
func TestRetryResolvesPendingCommit(t *testing.T) {
	d := ptest.Deploy(t, eiger.New(), ptest.Expect{}, 103)
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "n0"}, model.Write{Object: "X1", Value: "n1"}))
	d.Kernel.StepProcess("c0")
	// Prepare at both, acks back, commits out; deliver commit only to s1.
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
	d.Kernel.StepProcess("c0")
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: "s1"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s1")

	// Run the ROT with the commit to s0 frozen: round 1 observes new X1
	// and old X0 with a pending marker, so the client must keep retrying
	// instead of returning the mixed pair.
	rotID := d.Invoke("r0", model.NewReadOnly(model.TxnID{}, "X0", "X1"))
	frozen := &sim.RoundRobin{Only: sim.Restrict("r0", "s0", "s1")}
	sim.Run(d.Kernel, frozen, func(*sim.Kernel) bool { return !d.Client("r0").Busy() }, 300)
	if !d.Client("r0").Busy() {
		res := d.Client("r0").Finished(rotID)
		v0, v1 := res.Value("X0"), res.Value("X1")
		if (v0 == "n0") != (v1 == "n1") {
			t.Fatalf("mixed read escaped the retry protocol: %v", res.Values)
		}
	}

	// Release the commit; the ROT must now complete consistently and the
	// retry rounds must be visible.
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: "s0"}) {
		d.Kernel.Deliver(m.ID)
	}
	sim.Run(d.Kernel, &sim.RoundRobin{}, func(*sim.Kernel) bool { return !d.Client("r0").Busy() }, 400_000)
	res := d.Client("r0").Finished(rotID)
	if res == nil || !res.OK() {
		t.Fatalf("ROT failed: %v", res)
	}
	v0, v1 := res.Value("X0"), res.Value("X1")
	if (v0 == "n0") != (v1 == "n1") {
		t.Fatalf("mixed read escaped the retry protocol: %v", res.Values)
	}
	if res.Rounds < 2 {
		t.Fatalf("saw pending-affected snapshot without retrying: rounds=%d values=%v", res.Rounds, res.Values)
	}
}

func TestWriteIsTwoPhase(t *testing.T) {
	d := ptest.Deploy(t, eiger.New(), ptest.Expect{}, 107)
	res := d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "w0"}, model.Write{Object: "X1", Value: "w1"}), 400_000)
	if !res.OK() || res.Rounds != 2 {
		t.Fatalf("write rounds = %d, want 2", res.Rounds)
	}
}

// TestLoadConformance: eiger must certify clean under concurrent load.
// The second-round read-at-time (server honors the
// At timestamp, client settles on SafeT/PendingBelow at the effective
// time) closed the straddling-read fracture that used to make this suite
// expected-failing; TestReadAtTimeClosesStraddlingRead pins the exact
// schedule that fractured.
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, eiger.New(), ptest.Expect{
		LoadTxns: 96,
	})
}

// TestReadAtTimeClosesStraddlingRead pins the schedule that used to
// fracture atomic visibility: a reader whose round-1 request reaches s0
// BEFORE the writer's prepare even arrives there (so s0 reports no
// pending marker at all) while its request to s1 arrives after the
// commit. The old protocol saw no pending marker, skipped the retry and
// returned the mixed pair; read-at-time forces a second round at the
// effective time, which cannot settle at s0 until the commit lands.
func TestReadAtTimeClosesStraddlingRead(t *testing.T) {
	d := ptest.Deploy(t, eiger.New(), ptest.Expect{}, 109)

	// Writer c0: multi-server write {X0=n0, X1=n1}.
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "n0"}, model.Write{Object: "X1", Value: "n1"}))
	d.Kernel.StepProcess("c0")

	// Reader r0 fires its round-1 reads NOW: both requests are in flight
	// before any prepare has been delivered.
	rotID := d.Invoke("r0", model.NewReadOnly(model.TxnID{}, "X0", "X1"))
	d.Kernel.StepProcess("r0")

	// Deliver r0's round-1 request to s0 first: s0 has no pending marker
	// and answers with the old X0 and PendingBelow = 0.
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "r0", To: "s0"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s0")

	// Now run the write to completion: prepares, acks, commits at both.
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
	d.Kernel.StepProcess("c0") // send commits
	for _, s := range []sim.ProcessID{"s0", "s1"} {
		for _, m := range d.Kernel.InTransitOn(sim.Link{From: "c0", To: s}) {
			d.Kernel.Deliver(m.ID)
		}
		d.Kernel.StepProcess(s)
	}

	// Only now deliver r0's round-1 request to s1: it answers with the
	// NEW X1 at the commit timestamp. Round 1 is now a mixed snapshot
	// with no pending marker anywhere.
	for _, m := range d.Kernel.InTransitOn(sim.Link{From: "r0", To: "s1"}) {
		d.Kernel.Deliver(m.ID)
	}
	d.Kernel.StepProcess("s1")

	// Let the ROT finish: the read-at-time second round must repair X0.
	sim.Run(d.Kernel, &sim.RoundRobin{}, func(*sim.Kernel) bool { return !d.Client("r0").Busy() }, 400_000)
	res := d.Client("r0").Finished(rotID)
	if res == nil || !res.OK() {
		t.Fatalf("ROT did not complete: %v", res)
	}
	v0, v1 := res.Value("X0"), res.Value("X1")
	if (v0 == "n0") != (v1 == "n1") {
		t.Fatalf("straddling read fractured the write: X0=%v X1=%v", v0, v1)
	}
	if v1 != "n1" {
		t.Fatalf("round 1 was scheduled after the commit at s1, want new X1: %v", res.Values)
	}
	if res.Rounds < 2 {
		t.Fatalf("mixed round-1 snapshot settled without a read-at-time round: rounds=%d values=%v",
			res.Rounds, res.Values)
	}
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, eiger.New(), ptest.Expect{})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, eiger.New(), ptest.Expect{})
}
