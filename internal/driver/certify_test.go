package driver

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/naivefast"
	"repro/internal/protocols/ramp"
	"repro/internal/protocols/spanner"
	"repro/internal/protocols/wren"
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
	if rep.Cert.Appended != history.MaxTxns+64 {
		t.Fatalf("session appended %d commits, want %d", rep.Cert.Appended, history.MaxTxns+64)
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

// TestThroughputCertifyRideAlong: a certified run without RecordHistory
// reports the agreed verdict at the claimed level, and a violator run
// pins the first offending commit.
func TestThroughputCertifyRideAlong(t *testing.T) {
	clean, err := Run(cops.New(), Config{
		Clients: 8, Txns: 200, Mix: workload.Balanced(), Seed: 2, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Cert.OK || clean.CertLevel != "causal" || clean.Cert.Appended != 200 {
		t.Fatalf("cops certification malformed: %+v", clean.Cert)
	}
	if clean.Cert.FirstViolation != -1 {
		t.Fatalf("clean cell pins a first violation: %+v", clean.Cert)
	}

	bad, err := Run(naivefast.New(), Config{
		Clients: 8, Txns: 96, Mix: workload.Balanced(), Seed: 2, ObjectsPerServer: 1, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Cert.OK {
		t.Fatal("naivefast certified clean")
	}
	if bad.Cert.FirstViolation < 0 || bad.Cert.FirstViolation >= bad.Committed {
		t.Fatalf("violator cell must pin the first offending commit: %+v", bad.Cert)
	}
}

// TestThroughputStaleness: the staleness probe wiring reaches the report
// and stays deterministic.
func TestThroughputStaleness(t *testing.T) {
	cfg := Config{Clients: 8, Txns: 200, Mix: workload.Balanced(), Seed: 5, ProbeStaleness: true}
	rep, err := Run(cops.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Staleness
	if st == nil || st.Probes == 0 {
		t.Fatalf("staleness tallies missing: %+v", st)
	}
	again, err := Run(cops.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *again.Staleness != *st {
		t.Fatalf("staleness tallies nondeterministic: %+v vs %+v", st, again.Staleness)
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
// on each certified cell of the benchmark's cert-ride workload, at the
// sizes its tracer replays (4 servers, seed 42: cops readheavy 16/2000,
// cops balanced 8/1000, spanner readheavy 8/1500), the streaming session,
// fed the recorded history in the order the ride-along collected it,
// stays within a small multiple of one batch solve. The bound is 2.5x
// with no absolute floor: on a loaded 2-core host the medians read
// 1.3–1.9, so a session twice as slow fails on every cell, while 2x
// would fail a clean session now and then.
func TestRideAlongWithinTwiceBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range []struct {
		name  string
		p     protocol.Protocol
		mix   workload.Mix
		cl, n int
	}{
		{"cops-reads", cops.New(), workload.ReadHeavy(), 16, 2000},
		{"cops-writes", cops.New(), workload.Balanced(), 8, 1000},
		{"spanner-reads", spanner.New(), workload.ReadHeavy(), 8, 1500},
	} {
		rep, err := Run(c.p, Config{
			Clients: c.cl, Txns: c.n, Mix: c.mix, Seed: 42,
			Servers: 4, ObjectsPerServer: 2, RecordHistory: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Batch and session run in alternate pairs with the collector held
		// off (each side starts from a collected heap), and the ratio is
		// the median over the pairs: CPU contention from other processes
		// weighs on both sides of a pair alike, and neither pays for
		// collections the other's garbage set off.
		h, level := rep.History, c.p.Claims().Consistency
		timed := func(f func()) time.Duration {
			runtime.GC()
			start := time.Now()
			f()
			return time.Since(start)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var ratios []float64
		var batch, session time.Duration
		for i := 0; i < 7; i++ {
			batch = timed(func() {
				if bv := history.CheckBatch(h, level); !bv.OK {
					t.Fatalf("%s: batch refutes the cell: %s", c.name, bv.Reason)
				}
			})
			session = timed(func() {
				s := history.NewStreamingSession(h.Initials(), level, h.Clients())
				for _, rec := range h.Records() {
					if !s.Append(rec) {
						break
					}
				}
				if sv := s.Finish(); !sv.OK {
					t.Fatalf("%s: session refutes the cell: %s", c.name, sv.Reason)
				}
			})
			ratios = append(ratios, session.Seconds()/batch.Seconds())
		}
		sort.Float64s(ratios)
		if ratio := ratios[3]; ratio > 2.5 {
			t.Errorf("%s: session/batch %.2f, past 2.5x (pairs %.2f)", c.name, ratio, ratios)
		}
		t.Logf("%s: session/batch %.2f (pairs %.2f; last %v / %v)", c.name, ratios[3], ratios, session, batch)
	}
}

// TestRampFracturedReadGap pins the closed gap: the bench cell
// `-certify -protocols ramp -mixes balanced -servers 4 -clients 8 -txns
// 1000 -seed 42` reported a fractured read at commit 479 while ramp's
// clock was a Lamport counter, so a writer that finished first could
// carry the later writer's timestamp or a larger one. Stamped on a hybrid
// clock over real time, it certifies clean.
func TestRampFracturedReadGap(t *testing.T) {
	rep, err := Run(ramp.New(), Config{
		Clients: 8, Txns: 1000, Mix: workload.Balanced(), Seed: 42,
		Servers: 4, ObjectsPerServer: 2, Certify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Cert; v == nil || !v.OK {
		t.Fatalf("the ramp cell does not certify clean: %+v", v)
	}
}

// TestWrenLargeCellGap pins a known gap, not a contract: the bench cell
// `-certify -protocols wren -mixes balanced -servers 8 -clients 8 -txns
// 600 -seed 1` finds no causal serialization from commit 65 on, the
// second input for a shrinker. Once the cause is found and fixed, the
// cell must certify clean and this assertion flips.
func TestWrenLargeCellGap(t *testing.T) {
	rep, err := Run(wren.New(), Config{
		Clients: 8, Txns: 600, Mix: workload.Balanced(), Seed: 1,
		Servers: 8, ObjectsPerServer: 2, Certify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const reason = "no causal serialization exists for client c3"
	if v := rep.Cert; v == nil || v.OK {
		t.Fatal("the wren cell certifies clean: the known gap closed, flip this test")
	} else if v.FirstViolation != 65 || v.Reason != reason {
		t.Fatalf("violation moved: first %d, %q; pinned 65, %q", v.FirstViolation, v.Reason, reason)
	}
}
