package driver

import (
	"slices"
	"testing"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/spanner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func crashNemesis(lose bool) *Nemesis {
	return &Nemesis{Crashes: 1, Lose: lose, Start: 5_000, Duration: 8_000}
}

func partitionNemesis() *Nemesis {
	return &Nemesis{Partitions: 1, Start: 5_000, Duration: 8_000}
}

// TestNemesisWorkersByteIdentical extends the serial-equals-parallel
// contract to faulted runs: a crash/restart or partition/heal schedule is
// part of the configuration, not of the execution, so for a fixed seed
// and schedule the report — fault accounting included — must be
// byte-identical at every worker count. Every reported recovery latency
// must also be what NemesisReport documents (checkRecoveryIsEarliest).
func TestNemesisWorkersByteIdentical(t *testing.T) {
	protos := []struct {
		name string
		mk   func() protocol.Protocol
	}{
		{"cops", func() protocol.Protocol { return cops.New() }},
		{"spanner", func() protocol.Protocol { return spanner.New() }},
	}
	schedules := []struct {
		name string
		nem  func() *Nemesis
	}{
		{"crash", func() *Nemesis { return crashNemesis(false) }},
		{"partition", partitionNemesis},
	}
	for _, p := range protos {
		for _, sch := range schedules {
			t.Run(p.name+"-"+sch.name+"-lookahead", func(t *testing.T) {
				base := Config{
					Clients: 8, Txns: 72, Mix: workload.Balanced(), Seed: 7,
					Servers: 4, ObjectsPerServer: 2,
					RecordHistory: true, Certify: true,
					Nemesis: sch.nem(),
				}
				runWith := func(workers int) (*Report, string) {
					cfg := base
					cfg.Nemesis = sch.nem() // fresh: build mutates defaults
					cfg.Workers = workers
					// Run's own steps, spelled out to keep the run's
					// recovery marks in reach.
					cfg.defaults()
					d, err := deploy(p.mk(), cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					r, err := startRun(d, cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					rep, err := r.runClosed()
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if rep.Nemesis == nil {
						t.Fatalf("workers=%d: no nemesis report", workers)
					}
					if rep.Nemesis.Applied != rep.Nemesis.Scheduled {
						t.Fatalf("workers=%d: applied %d of %d scheduled faults",
							workers, rep.Nemesis.Applied, rep.Nemesis.Scheduled)
					}
					if rep.Nemesis.UnavailableTime <= 0 {
						t.Fatalf("workers=%d: zero unavailable time across a fault window", workers)
					}
					if rep.Incomplete != 0 {
						t.Fatalf("workers=%d: %d transactions incomplete after heal", workers, rep.Incomplete)
					}
					if rep.Cert == nil || !rep.Cert.OK {
						t.Fatalf("workers=%d: persistent faults must certify clean (delay-indistinguishable): %+v",
							workers, rep.Cert)
					}
					checkRecoveryIsEarliest(t, r)
					return rep, reportFingerprint(t, rep)
				}
				_, want := runWith(1)
				for _, workers := range []int{2, 4} {
					_, got := runWith(workers)
					diffLines(t, "nemesis "+sch.name, want, got)
				}
			})
		}
	}
}

// checkRecoveryIsEarliest recomputes the recovery latencies from the
// run's recorded history (every committed transaction): for each
// restart/heal mark, the earliest commit at or after it (touching the
// restarted server, for a restart) — not whichever qualifying commit the
// drain happened to hand over first.
func checkRecoveryIsEarliest(t *testing.T, r *run) {
	t.Helper()
	want := stats.NewCollector()
	for _, m := range r.nem.marks {
		first := int64(-1)
		for _, rec := range r.rep.History.Records() {
			if rec.Completed < int64(m.at) || (first >= 0 && rec.Completed >= first) {
				continue
			}
			objs := make([]string, 0, len(rec.Reads)+len(rec.Writes))
			for o := range rec.Reads {
				objs = append(objs, o)
			}
			for _, w := range rec.Writes {
				objs = append(objs, w.Object)
			}
			if m.proc == "" || slices.Contains(r.d.Place.ServersFor(objs), m.proc) {
				first = rec.Completed
			}
		}
		if first >= 0 {
			want.Add(first - int64(m.at))
		}
	}
	w, got := want.Summarize(), r.rep.Nemesis.RecoveryLatency
	if got.N != w.N || got.Min != w.Min || got.P50 != w.P50 || got.Max != w.Max {
		t.Fatalf("recovery latency n/min/p50/max = %d/%d/%d/%d, but the earliest qualifying commits give %d/%d/%d/%d",
			got.N, got.Min, got.P50, got.Max, w.N, w.Min, w.P50, w.Max)
	}
}

// TestNemesisSerialDeterministic is the same-flags repeat: same
// configuration, same schedule, byte-identical reports. (The name dates
// from the serial Workers=0 engine; left unset, Workers now means 1.)
func TestNemesisSerialDeterministic(t *testing.T) {
	cfg := Config{
		Clients: 8, Txns: 72, Mix: workload.Balanced(), Seed: 3,
		RecordHistory: true, Certify: true,
	}
	run := func() string {
		c := cfg
		c.Nemesis = crashNemesis(false)
		rep, err := Run(cops.New(), c)
		if err != nil {
			t.Fatal(err)
		}
		return reportFingerprint(t, rep)
	}
	want := run()
	diffLines(t, "nemesis repeat", want, run())
}

// TestNemesisCertifiedCells is the acceptance pair: a 2000-transaction
// cops run with a mid-run server crash+restart, and a 2-site cure run
// with a cross-site partition+heal. Both must complete everything and
// report nonzero unavailability and recovery latency. Cops must certify
// clean across the fault; cure carries its documented visibility
// fracture (ROADMAP: cure-fracture, clean at 8 clients fault-free but
// the partition's reshuffled delivery exposes it) — a refutation there
// is accepted iff it is pinned to a first offending commit whose witness
// prefix refutes on its own, the documented-gap contract.
func TestNemesisCertifiedCells(t *testing.T) {
	t.Run("cops-crash-2000", func(t *testing.T) {
		rep, err := Run(cops.New(), Config{
			Clients: 8, Txns: 2000, Mix: workload.Balanced(), Seed: 11,
			Servers: 4, ObjectsPerServer: 2,
			Certify: true,
			Nemesis: &Nemesis{Crashes: 2, Start: 20_000, Period: 200_000, Duration: 10_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		checkCertifiedCell(t, rep, false)
	})
	t.Run("cure-2site-partition", func(t *testing.T) {
		topo, err := protocol.TopologyByName("2site")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(cure.New(), Config{
			Clients: 8, Txns: 400, Mix: workload.Balanced(), Seed: 11,
			Servers: 4, ObjectsPerServer: 2, Topology: topo,
			RecordHistory: true, Certify: true,
			Nemesis: &Nemesis{Partitions: 1, Start: 20_000, Duration: 15_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		checkCertifiedCell(t, rep, true)
	})
}

func checkCertifiedCell(t *testing.T, rep *Report, knownFracture bool) {
	t.Helper()
	if rep.Incomplete != 0 {
		t.Fatalf("%d transactions incomplete after heal", rep.Incomplete)
	}
	if rep.Committed == 0 {
		t.Fatal("nothing committed")
	}
	switch {
	case rep.Cert == nil:
		t.Fatal("ride-along certification did not run")
	case rep.Cert.OK:
		// Certified clean across the fault.
	case knownFracture:
		// The documented cure fracture: accept only a properly pinned
		// first violation whose witness prefix refutes by itself.
		v := rep.Cert
		if v.FirstViolation < 0 || len(v.WitnessPrefix) == 0 {
			t.Fatalf("fracture surfaced but not pinned: %+v", v)
		}
		if rep.History != nil && rep.History.Len() <= history.MaxTxns {
			if pv := history.CheckBatch(rep.History.Prefix(v.FirstViolation+1), rep.CertLevel); pv.OK {
				t.Fatalf("pinned prefix %d does not refute in batch", v.FirstViolation+1)
			}
		}
		t.Logf("documented cure fracture pinned under partition: first=%d id=%s (%s)",
			v.FirstViolation, v.FirstViolationID, v.Reason)
	default:
		t.Fatalf("faulted run does not certify at claimed level: %+v", rep.Cert)
	}
	n := rep.Nemesis
	if n == nil || n.Applied != n.Scheduled {
		t.Fatalf("fault schedule not fully applied: %+v", n)
	}
	if n.UnavailableTime <= 0 {
		t.Fatalf("zero unavailability: %+v", n)
	}
	if n.Recoveries == 0 || n.RecoveryLatency.N == 0 || n.RecoveryLatency.P50 <= 0 {
		t.Fatalf("no recovery latency measured: %+v", n)
	}
	if n.FaultedCommitted == 0 {
		t.Fatalf("no transaction lifetime crossed a fault window: %+v", n)
	}
	if n.LostMessages != 0 {
		t.Fatalf("persistent faults lost %d messages", n.LostMessages)
	}
}

// TestNemesisStalenessUnderPartition: with replication traffic severed
// (ServersOnly partition) while clients keep committing at their
// primaries, the staleness probes sampled inside the fault window must
// observe stale values — replicas cannot have the writes yet — at a
// higher rate than the run overall, and the run must still drain clean
// after heal.
func TestNemesisStalenessUnderPartition(t *testing.T) {
	rep, err := Run(cure.New(), Config{
		Clients: 8, Txns: 300, Mix: workload.Balanced(), Seed: 9,
		Servers: 2, ObjectsPerServer: 2, Replication: 2,
		ProbeStaleness: true, Certify: true,
		Nemesis: &Nemesis{Partitions: 1, ServersOnly: true, Start: 10_000, Duration: 40_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("%d transactions incomplete after heal", rep.Incomplete)
	}
	st := rep.Staleness
	if st == nil || st.Probes == 0 {
		t.Fatalf("no staleness probes ran: %+v", st)
	}
	if st.FaultedProbes == 0 {
		t.Fatalf("no probe sampled inside the partition window: %+v", st)
	}
	if st.FaultedStale+st.FaultedIncomplete == 0 {
		t.Fatalf("probes inside a replication partition observed no staleness: %+v", st)
	}
	// Recovery after heal: the post-heal probes (the non-faulted rest)
	// must not be uniformly stale — replication catches up.
	cleanProbes := st.Probes - st.FaultedProbes
	cleanStale := st.Stale - st.FaultedStale
	if cleanProbes > 0 && cleanStale >= cleanProbes {
		t.Fatalf("staleness did not recover after heal: %d/%d clean probes stale", cleanStale, cleanProbes)
	}
	if rep.Cert == nil || !rep.Cert.OK {
		t.Fatalf("partition (delay-indistinguishable) broke certification: %+v", rep.Cert)
	}
}

// TestNemesisLossyCrashHasTeeth: a lossy crash on an unreplicated cops
// deployment discards committed-but-unreplicated state — real data loss,
// which ride-along certification must refute (pinned to a first
// offending commit with a checkable witness prefix) or the run must
// visibly fail to drain. A quiet clean pass would mean the nemesis
// layer's teeth are cosmetic.
func TestNemesisLossyCrashHasTeeth(t *testing.T) {
	rep, err := Run(cops.New(), Config{
		Clients: 8, Txns: 200, Mix: workload.Balanced(), Seed: 5,
		Servers: 2, ObjectsPerServer: 2,
		RecordHistory: true, Certify: true,
		Nemesis: crashNemesis(true),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nemesis == nil || rep.Nemesis.Crashes == 0 {
		t.Fatalf("lossy crash not applied: %+v", rep.Nemesis)
	}
	if rep.Nemesis.LostMessages == 0 && rep.Cert.OK && rep.Incomplete == 0 {
		t.Fatalf("lossy crash run lost nothing, completed and certified clean: no teeth (%+v)", rep.Nemesis)
	}
	if !rep.Cert.OK {
		// The violation must be pinned and its witness prefix must refute
		// on its own.
		v := rep.Cert
		if v.FirstViolation < 0 {
			t.Fatalf("violation not pinned: %+v", v)
		}
		if rep.History != nil && rep.History.Len() <= history.MaxTxns {
			if pv := history.CheckBatch(rep.History.Prefix(v.FirstViolation+1), rep.CertLevel); pv.OK {
				t.Fatalf("pinned prefix %d does not refute in batch", v.FirstViolation+1)
			}
		}
	}
}

// TestNemesisValidation pins the configuration refusals.
func TestNemesisValidation(t *testing.T) {
	base := Config{Clients: 2, Txns: 8, Seed: 1}
	bad := []*Nemesis{
		{Schedule: []sim.Fault{{Kind: sim.FaultCrash, Proc: "c0"}}},            // clients are not crash targets
		{Schedule: []sim.Fault{{Kind: sim.FaultCut, From: []sim.ProcessID{}}}}, // empty group
		{Schedule: []sim.Fault{{Kind: sim.FaultKind(99), Proc: "s0"}}},         // unknown kind
		{Schedule: []sim.Fault{{At: -5, Kind: sim.FaultCrash, Proc: "s0"}}},    // negative instant
		{Crashes: -1},
	}
	for i, n := range bad {
		cfg := base
		cfg.Nemesis = n
		if _, err := Run(cops.New(), cfg); err == nil {
			t.Errorf("bad nemesis %d accepted", i)
		}
	}
}

// FuzzNemesisSchedule drives arbitrary explicit fault schedules through a
// small cops run: whatever the instants, targets and loss flags, the run
// must return (no deadlock), kernel message conservation must hold, and
// the ride-along session verdict must agree with a batch re-solve of the
// surviving (collected) history.
func FuzzNemesisSchedule(f *testing.F) {
	f.Add(int64(1), uint16(4000), uint16(9000), uint16(6000), uint8(0), false)
	f.Add(int64(2), uint16(100), uint16(100), uint16(0), uint8(1), true)
	f.Add(int64(3), uint16(60000), uint16(30000), uint16(65535), uint8(7), true)
	f.Add(int64(4), uint16(0), uint16(0), uint16(1), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, crashAt, cutAt, dur uint16, target uint8, lose bool) {
		srv := sim.ProcessID([]string{"s0", "s1"}[int(target)%2])
		schedule := []sim.Fault{
			{At: sim.Time(crashAt), Kind: sim.FaultCrash, Proc: srv, Lose: lose},
			{At: sim.Time(crashAt) + sim.Time(dur) + 1, Kind: sim.FaultRestart, Proc: srv},
			{At: sim.Time(cutAt), Kind: sim.FaultCut,
				From: []sim.ProcessID{"s0", "c0"}, To: []sim.ProcessID{"s1", "c1"}},
			{At: sim.Time(cutAt) + sim.Time(dur) + 1, Kind: sim.FaultHeal,
				From: []sim.ProcessID{"s0", "c0"}, To: []sim.ProcessID{"s1", "c1"}},
		}
		cfg := Config{
			Clients: 2, Txns: 16, Mix: workload.Balanced(), Seed: seed,
			Servers: 2, ObjectsPerServer: 2,
			RecordHistory: true, Certify: true,
			Nemesis: &Nemesis{Schedule: schedule},
		}
		cfg.defaults()
		d, err := deploy(cops.New(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunOn(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Kernel.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		if rep.Nemesis == nil || rep.Nemesis.Scheduled != len(schedule) {
			t.Fatalf("schedule not threaded: %+v", rep.Nemesis)
		}
		// The streaming verdict and a batch re-solve of the surviving
		// history must agree — faults must not desynchronize the checkers.
		if rep.History.Len() <= history.MaxTxns {
			batch := history.CheckBatch(rep.History, rep.CertLevel)
			if batch.OK != rep.Cert.OK {
				t.Fatalf("session verdict %v disagrees with batch re-solve %v", rep.Cert.OK, batch.OK)
			}
		}
	})
}
