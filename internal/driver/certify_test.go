package driver

import (
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/naivefast"
	"repro/internal/workload"
)

// TestRideAlongCertifiesClosedLoop: a clean protocol under closed-loop
// load certifies ride-along, and the session verdict agrees with the
// batch solver over the same recorded history.
func TestRideAlongCertifiesClosedLoop(t *testing.T) {
	rep, err := Run(cops.New(), Config{
		Clients: 8, Txns: 200, Mix: workload.Balanced(), Seed: 5,
		RecordHistory: true, Certify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cert == nil || rep.CertLevel != "causal" {
		t.Fatalf("certification missing: %+v", rep.Cert)
	}
	if !rep.Cert.OK {
		t.Fatalf("cops failed ride-along certification: %s", rep.Cert.Reason)
	}
	if rep.Cert.FirstViolation != -1 || rep.Cert.Appended != rep.Committed {
		t.Fatalf("clean run verdict malformed: %+v", rep.Cert)
	}
	if batch := history.CheckBatch(rep.History, rep.CertLevel); !batch.OK {
		t.Fatalf("batch disagrees with clean ride-along verdict: %s", batch.Reason)
	}
}

// TestRideAlongCertifiesOpenLoop: the ride-along session also rides the
// open-loop regime, where collection order interleaves across clients
// and reads routinely resolve before their writers are collected.
func TestRideAlongCertifiesOpenLoop(t *testing.T) {
	rep, err := Run(cure.New(), Config{
		Clients: 8, Txns: 160, Mix: workload.Balanced(), Seed: 3, Rate: 1000,
		RecordHistory: true, Certify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cert == nil || !rep.Cert.OK {
		t.Fatalf("cure failed open-loop ride-along certification: %+v", rep.Cert)
	}
	if batch := history.CheckBatch(rep.History, rep.CertLevel); batch.OK != rep.Cert.OK {
		t.Fatalf("open-loop session/batch disagreement: %v vs %v", rep.Cert.OK, batch.OK)
	}
}

// TestRideAlongFirstViolationPin pins the first-offending-commit report
// of a known violator: naivefast (the impossible fast design of Theorem
// 1) under the conformance sweep's configuration is refuted at append
// index 6 — the session seals after 7 commits of the 96-transaction run
// instead of checking the whole history after the fact. The pinned index
// is deterministic: same protocol, config and seed, same first offender.
// (Re-pinned from 4 when the serial Workers=0 engine was deleted and this
// config began running on the sharded schedule: the offender is still
// c4/1, two more commits complete before it in that schedule.)
func TestRideAlongFirstViolationPin(t *testing.T) {
	rep, err := Run(naivefast.New(), Config{
		Clients: 8, Txns: 96, Mix: workload.Balanced(), Seed: 2,
		Servers: 2, ObjectsPerServer: 1,
		RecordHistory: true, Certify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Cert
	if v.OK {
		t.Fatal("naivefast certified clean — the ride-along lost the theorem's victim")
	}
	const pinnedFirst = 6 // seed 2's first offending commit, txn c4/1
	if v.FirstViolation != pinnedFirst || v.FirstViolationID.String() != "c4/1" {
		t.Fatalf("first violation at append %d (%s), pinned %d (c4/1): %s",
			v.FirstViolation, v.FirstViolationID, pinnedFirst, v.Reason)
	}
	if v.Appended != pinnedFirst+1 {
		t.Fatalf("session appended %d commits past the violation", v.Appended-pinnedFirst-1)
	}
	if len(v.WitnessPrefix) != pinnedFirst+1 || v.WitnessPrefix[pinnedFirst] != v.FirstViolationID {
		t.Fatalf("witness prefix malformed: %v", v.WitnessPrefix)
	}
	// Minimality: the prefix through the offender refutes under the batch
	// solver, and re-feeding the records before it raises no violation.
	// (The batch checker on the shorter prefix is no oracle here: it
	// calls a read whose writer has not been collected yet a dangling
	// read, where the session correctly parks it as pending.)
	if pv := history.CheckBatch(rep.History.Prefix(pinnedFirst+1), rep.CertLevel); pv.OK {
		t.Fatal("prefix through the first offending commit certifies clean")
	}
	s := history.NewSession(rep.History.Initials(), rep.CertLevel, pinnedFirst)
	for k, rec := range rep.History.Records()[:pinnedFirst] {
		if !s.Append(rec) {
			t.Fatalf("session violates at %d on re-feed, first violation was %d", k, pinnedFirst)
		}
	}
}

// TestCertifyPastBatchCeiling: the streaming ride-along session lifts
// the old up-front refusal at history.MaxTxns — a run past the batch
// ceiling certifies exactly, with committed prefixes of the closure
// retired as the run proceeds instead of the driver erroring out.
func TestCertifyPastBatchCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Accepting direction. The cell dilutes contention (32 objects,
	// read-heavy mix) so the causal session needs no solver fallbacks:
	// at the causal level the base order is too sparse for eviction to
	// progress (the documented exactness limit — no real-time edges, so
	// a future constraint may still order a live transaction before any
	// unordered old one), and an unretired 4k window with resolves costs
	// minutes, not seconds.
	rep, err := Run(cops.New(), Config{
		Clients: 8, Txns: history.MaxTxns + 64, Mix: workload.ReadHeavy(), Seed: 5,
		Servers: 4, ObjectsPerServer: 8,
		Certify: true,
	})
	if err != nil {
		t.Fatalf("driver refused a certified run past the batch ceiling: %v", err)
	}
	if rep.Cert == nil || !rep.Cert.OK {
		t.Fatalf("cops failed certification past the ceiling: %+v", rep.Cert)
	}
	if rep.Cert.Appended != rep.Committed || rep.Cert.Appended <= history.MaxTxns {
		t.Fatalf("session appended %d of %d commits (ceiling %d)",
			rep.Cert.Appended, rep.Committed, history.MaxTxns)
	}
	if rep.Cert.FirstViolation != -1 {
		t.Fatalf("clean run pins a violation: %+v", rep.Cert)
	}
	if rep.Cert.PeakWindow == 0 || rep.Cert.PeakWindow > rep.Cert.Appended {
		t.Fatalf("peak window %d out of range for %d appends", rep.Cert.PeakWindow, rep.Cert.Appended)
	}

	// Refuting direction: a violator past the ceiling is still caught
	// and pinned — the session seals at the first offending commit, so
	// the cell stays cheap no matter how large Txns is.
	bad, err := Run(naivefast.New(), Config{
		Clients: 8, Txns: history.MaxTxns + 64, Mix: workload.Balanced(), Seed: 2,
		Servers: 2, ObjectsPerServer: 1,
		Certify: true,
	})
	if err != nil {
		t.Fatalf("driver refused the violating past-ceiling run: %v", err)
	}
	if bad.Cert.OK {
		t.Fatal("naivefast certified clean past the ceiling")
	}
	if bad.Cert.FirstViolation < 0 || bad.Cert.FirstViolation >= history.MaxTxns {
		t.Fatalf("violation not pinned early: %+v", bad.Cert)
	}
}

// TestStalenessProbes: with ProbeStaleness set, committed writes are
// sampled through a frozen reserved reader; the tallies are bounded by
// the sampling cap, internally consistent, and — because probes run on
// kernel snapshots and the results they looked at wait for the collect
// the un-probed run makes — the whole report outside Staleness is
// unchanged, faults and ride-along certification included. On a
// replicated fault-free cell the probe is a measurement, not a constant:
// some sampled writes are visible, some not (every one read stale while
// probes ran against the end-of-run state), identically at any Workers.
func TestStalenessProbes(t *testing.T) {
	cfg := Config{
		Clients: 8, Txns: 200, Mix: workload.Balanced(), Seed: 5,
		ProbeStaleness: true,
	}
	rep, err := Run(cops.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Staleness
	if st == nil || st.Probes == 0 {
		t.Fatalf("no staleness probes ran: %+v", st)
	}
	if st.Probes > probeCap {
		t.Fatalf("probes %d exceed the cap %d", st.Probes, probeCap)
	}
	if st.Stale > st.Probes || st.Incomplete > st.Probes {
		t.Fatalf("tallies exceed probe count: %+v", st)
	}

	// The probes must not perturb the measured run: same run without
	// probing, same report — through a fault schedule and ride-along
	// certification too.
	for _, c := range []Config{
		cfg,
		{Clients: 8, Txns: 300, Mix: workload.Balanced(), Seed: 42, Servers: 4,
			ProbeStaleness: true, RecordHistory: true, Certify: true,
			Nemesis: &Nemesis{Crashes: 1, Partitions: 1, Start: 8_000, Period: 40_000}},
	} {
		probed, err := Run(cops.New(), c)
		if err != nil {
			t.Fatal(err)
		}
		if probed.Staleness == nil || probed.Staleness.Probes == 0 {
			t.Fatalf("no staleness probes ran: %+v", probed.Staleness)
		}
		probed.Staleness = nil
		c.ProbeStaleness = false
		if c.Nemesis != nil {
			n := *c.Nemesis
			c.Nemesis = &n
		}
		plain, err := Run(cops.New(), c)
		if err != nil {
			t.Fatal(err)
		}
		diffLines(t, "probed vs plain", reportFingerprint(t, plain), reportFingerprint(t, probed))
	}

	// And the tallies themselves are deterministic.
	rep3, err := Run(cops.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *rep3.Staleness != *st {
		t.Fatalf("staleness tallies nondeterministic: %+v vs %+v", st, rep3.Staleness)
	}

	// Replicated, fault-free: a measurement, the same at every Workers.
	for _, p := range []protocol.Protocol{cops.New(), cure.New()} {
		var at1 StalenessReport
		for _, workers := range []int{1, 4} {
			rep, err := Run(p, Config{
				Clients: 8, Txns: 300, Mix: workload.Balanced(), Seed: 1,
				Servers: 2, Replication: 2, Workers: workers,
				ProbeStaleness: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := *rep.Staleness
			if st.Probes == 0 || st.Stale == 0 || st.Stale >= st.Probes {
				t.Fatalf("%s workers=%d: %d of %d probes stale — the probe is not measuring", p.Name(), workers, st.Stale, st.Probes)
			}
			if workers == 1 {
				at1 = st
			} else if st != at1 {
				t.Fatalf("%s: tallies differ across Workers: %+v at 1, %+v at %d", p.Name(), at1, st, workers)
			}
		}
	}
}

// TestRideAlongWithinTwiceBatch is ROADMAP's certification bar as a gate:
// on the benchmark's full-size causal cell (cops readheavy, 4 servers, 16
// clients, 2000 txns) the streaming session, fed the recorded history in
// the order the ride-along collected it, costs at most twice one batch
// solve. Before the slot-indexed overlays every global edge walked every
// override row of all 16 client states and this ratio read 3.5–4.2. Like
// TestSessionIncrementalBudget the ratio only fails past an absolute
// floor: a fast run that overshoots it is noise, not a regression.
func TestRideAlongWithinTwiceBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := Run(cops.New(), Config{
		Clients: 16, Txns: 2000, Mix: workload.ReadHeavy(), Seed: 42,
		Servers: 4, ObjectsPerServer: 2, RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := rep.History
	start := time.Now()
	if bv := history.CheckBatch(h, "causal"); !bv.OK {
		t.Fatalf("batch refutes the cops cell: %s", bv.Reason)
	}
	batch := time.Since(start)
	var session time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		s := history.NewStreamingSession(h.Initials(), "causal", h.Clients())
		for _, rec := range h.Records() {
			if !s.Append(rec) {
				break
			}
		}
		if sv := s.Finish(); !sv.OK {
			t.Fatalf("session refutes the cops cell: %s", sv.Reason)
		}
		if d := time.Since(start); i == 0 || d < session {
			session = d
		}
	}
	const floor = 250 * time.Millisecond
	if session > 2*batch && session > floor {
		t.Fatalf("session %v vs batch %v: past 2x with the %v floor cleared", session, batch, floor)
	}
	t.Logf("cops readheavy 4/16/2000: session %v, batch %v", session, batch)
}
