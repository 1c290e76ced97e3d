package driver

import (
	"fmt"
	"testing"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/spanner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Generated cycles offset replacements by Period/4 and restores by
// 3·Period/4 inside the cycle, so the Period here is chosen to land both
// mid-run for short (72-txn, ~25ms) loads: the replace fires at 9_000,
// the restore at 10_000.
func replaceNemesis(lose bool) *Nemesis {
	return &Nemesis{Replaces: 1, Lose: lose, Start: 4_000, Period: 20_000}
}

func restoreNemesis() *Nemesis {
	return &Nemesis{Restores: 1, Start: 4_000, Period: 8_000}
}

// checkReconfigReport asserts the invariants every pure replace/restore
// schedule must satisfy: fully applied (companion restarts included),
// nonzero sync accounting, a real unavailability window and no lost
// messages (a non-lossy replacement reattaches the durable image — held
// traffic is delayed, never dropped).
func checkReconfigReport(t *testing.T, rep *Report) {
	t.Helper()
	n := rep.Nemesis
	if n == nil {
		t.Fatal("no nemesis report")
	}
	if n.Applied != n.Scheduled {
		t.Fatalf("applied %d of %d scheduled faults (companion restarts included)", n.Applied, n.Scheduled)
	}
	if n.Replacements+n.Restores == 0 {
		t.Fatalf("no replacement or restore applied: %+v", n)
	}
	if n.SyncedVersions == 0 {
		t.Fatalf("replacement adopted zero versions — the durable image vanished from the accounting: %+v", n)
	}
	if n.SyncTime <= 0 {
		t.Fatalf("zero catch-up time: %+v", n)
	}
	if n.UnavailableTime <= 0 {
		t.Fatalf("zero unavailable time across a replacement: %+v", n)
	}
	if n.Unrecovered != 0 {
		t.Fatalf("%d replacements never came back: %+v", n.Unrecovered, n)
	}
	if n.LostMessages != 0 {
		t.Fatalf("non-lossy reconfiguration lost %d messages", n.LostMessages)
	}
}

// TestReconfigWorkersByteIdentical extends the serial-equals-parallel
// contract to reconfiguration: a replace or restore schedule — companion
// restarts at data-dependent sync instants included — is part of the
// configuration, not of the execution, so for a fixed seed and schedule
// the report must be byte-identical at every worker count.
func TestReconfigWorkersByteIdentical(t *testing.T) {
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
		{"replace", func() *Nemesis { return replaceNemesis(false) }},
		{"restore", restoreNemesis},
	}
	for _, p := range protos {
		for _, sch := range schedules {
			t.Run(p.name+"-"+sch.name+"-lookahead", func(t *testing.T) {
				base := Config{
					Clients: 8, Txns: 72, Mix: workload.Balanced(), Seed: 7,
					Servers: 4, ObjectsPerServer: 2,
					RecordHistory: true, Certify: true,
				}
				runWith := func(workers int) (*Report, string) {
					cfg := base
					cfg.Nemesis = sch.nem() // fresh: build mutates defaults
					cfg.Workers = workers
					rep, err := Run(p.mk(), cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					checkReconfigReport(t, rep)
					if rep.Incomplete != 0 {
						t.Fatalf("workers=%d: %d transactions incomplete after the replacement caught up",
							workers, rep.Incomplete)
					}
					if rep.Cert == nil || !rep.Cert.OK {
						t.Fatalf("workers=%d: non-lossy reconfiguration must certify clean: %+v",
							workers, rep.Cert)
					}
					return rep, reportFingerprint(t, rep)
				}
				_, want := runWith(1)
				for _, workers := range []int{2, 4} {
					_, got := runWith(workers)
					diffLines(t, "reconfig "+sch.name, want, got)
				}
			})
		}
	}
}

// TestReconfigCertified2000 is the acceptance cell: a certified
// 2000-transaction cops run completes through a mid-run replica
// replacement on the sharded engine, with W1-vs-W4 byte-identity,
// nonzero sync accounting, and a ride-along verdict that agrees with the
// batch re-solve of the recorded history.
func TestReconfigCertified2000(t *testing.T) {
	t.Run("lookahead", func(t *testing.T) {
		runWith := func(workers, txns int, certify bool) *Report {
			cfg := Config{
				Clients: 8, Txns: txns, Mix: workload.Balanced(), Seed: 11,
				Servers: 4, ObjectsPerServer: 2,
				Workers:       workers,
				RecordHistory: true, Certify: certify,
				Nemesis: &Nemesis{Replaces: 1, Start: 20_000},
			}
			rep, err := Run(cops.New(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Incomplete != 0 {
				t.Fatalf("workers=%d: %d transactions incomplete", workers, rep.Incomplete)
			}
			checkReconfigReport(t, rep)
			return rep
		}
		// The certified cell: ride-along verdict, batch agreement,
		// replacement-phase slice populated.
		rep := runWith(1, 2000, true)
		if rep.Cert == nil || !rep.Cert.OK {
			t.Fatalf("certified replace cell refuted: %+v", rep.Cert)
		}
		if batch := history.CheckBatch(rep.History, rep.CertLevel); batch.OK != rep.Cert.OK {
			t.Fatalf("ride-along verdict OK=%v disagrees with batch re-solve OK=%v (%s)",
				rep.Cert.OK, batch.OK, batch.Reason)
		}
		if rep.Nemesis.SyncPhaseCommitted == 0 {
			t.Fatalf("no commit lifetime crossed the catch-up window: %+v", rep.Nemesis)
		}
		// W1-vs-W4 byte identity on the same certified cell.
		w4 := runWith(4, 2000, true)
		diffLines(t, "reconfig 2000", reportFingerprint(t, rep), reportFingerprint(t, w4))
	})
}

// TestReplaceLossyHasTeeth: replacing an unreplicated cops server with
// the disk gone discards committed-but-unreplicated state before its
// writes could propagate anywhere — under disjoint placement no peer
// holds the shard, so the replacement comes back owning nothing. Real
// data loss: ride-along certification must refute it (pinned to a first
// offending commit whose witness prefix refutes on its own) or the run
// must visibly fail to drain. The mirror of TestNemesisLossyCrashHasTeeth
// for the reconfiguration path.
func TestReplaceLossyHasTeeth(t *testing.T) {
	rep, err := Run(cops.New(), Config{
		Clients: 8, Txns: 200, Mix: workload.Balanced(), Seed: 5,
		Servers: 2, ObjectsPerServer: 2,
		RecordHistory: true, Certify: true,
		Nemesis: replaceNemesis(true),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := rep.Nemesis
	if n == nil || n.Replacements == 0 {
		t.Fatalf("lossy replacement not applied: %+v", n)
	}
	if n.PeerSyncedVersions != 0 {
		t.Fatalf("disjoint placement transferred %d versions from peers that host nothing", n.PeerSyncedVersions)
	}
	if rep.Cert.OK && rep.Incomplete == 0 && n.LostMessages == 0 {
		t.Fatalf("lossy replacement lost nothing, completed and certified clean: no teeth (%+v)", n)
	}
	if !rep.Cert.OK {
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

// TestReconfigStalenessUnderReplacement: while a replacement of one cure
// replica catches up, stabilization stalls — the live replica keeps
// committing but the global stable vector cannot advance past the dead
// peer — so the staleness probes sampled inside replacement windows must
// observe staleness (stale values or reads the frozen schedule cannot
// finish), and the post-catch-up probes must recover. Extends
// TestNemesisStalenessUnderPartition to the reconfiguration path.
func TestReconfigStalenessUnderReplacement(t *testing.T) {
	// Asymmetric placement: s0 is primary for every object, s1 a pure
	// replica. Replacing s1 never stalls a client — reads and writes keep
	// routing to s0 — but the stable vector cannot advance past the dead
	// replica, so probes sampled inside the window go stale, and the
	// replacement's catch-up pulls everything s0 committed meanwhile (a
	// real peer transfer, not an empty diff of two in-sync replicas).
	cfg := Config{
		Clients: 16, Txns: 600, Mix: workload.Balanced(), Seed: 9,
		Servers: 2, ObjectsPerServer: 2, Replication: 2,
		ProbeStaleness: true, Certify: true,
		Nemesis: &Nemesis{Schedule: []sim.Fault{
			{At: 15_000, Kind: sim.FaultCrash, Proc: "s1"},
			{At: 60_000, Kind: sim.FaultReplace, Proc: "s1"},
			{At: 110_000, Kind: sim.FaultCrash, Proc: "s1"},
			{At: 155_000, Kind: sim.FaultReplace, Proc: "s1"},
		}},
	}
	cfg.defaults()
	replicas := make(map[string][]sim.ProcessID)
	for i := 0; i < 4; i++ {
		replicas[fmt.Sprintf("X%d", i)] = []sim.ProcessID{"s0", "s1"}
	}
	d := protocol.Deploy(cure.New(), protocol.Config{
		Place:   protocol.NewPlacement(replicas),
		Clients: cfg.Clients,
		Seed:    cfg.Seed,
	})
	d.Kernel.SetTraceCap(-1)
	d.Kernel.SetPayloadRetention(false)
	if err := d.InitAll(400_000); err != nil {
		t.Fatal(err)
	}
	rep, err := RunOn(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("%d transactions incomplete after the replacements caught up", rep.Incomplete)
	}
	if rep.Nemesis == nil || rep.Nemesis.Replacements == 0 {
		t.Fatalf("no replacement applied: %+v", rep.Nemesis)
	}
	if rep.Nemesis.PeerSyncedVersions == 0 {
		t.Fatalf("replicated placement transferred nothing from the live replica: %+v", rep.Nemesis)
	}
	st := rep.Staleness
	if st == nil || st.Probes == 0 {
		t.Fatalf("no staleness probes ran: %+v", st)
	}
	if st.FaultedProbes == 0 {
		t.Fatalf("no probe sampled inside a replacement window: %+v", st)
	}
	if st.FaultedStale+st.FaultedIncomplete == 0 {
		t.Fatalf("probes inside a replacement window observed no staleness: %+v", st)
	}
	// Recovery: once every replacement has caught up, probes must not be
	// uniformly stale — the adopted state serves reads again.
	cleanProbes := st.Probes - st.FaultedProbes
	cleanStale := st.Stale - st.FaultedStale
	if cleanProbes > 0 && cleanStale >= cleanProbes {
		t.Fatalf("staleness did not recover after catch-up: %d/%d clean probes stale", cleanStale, cleanProbes)
	}
}

// TestReconfigValidation pins the configuration refusals for the new
// schedule kinds.
func TestReconfigValidation(t *testing.T) {
	base := Config{Clients: 2, Txns: 8, Seed: 1}
	bad := []*Nemesis{
		{Schedule: []sim.Fault{{Kind: sim.FaultReplace, Proc: "c0"}}},                        // clients are not replace targets
		{Schedule: []sim.Fault{{Kind: sim.FaultRestore, From: []sim.ProcessID{"s0", "c1"}}}}, // restore set must be servers
		{Replaces: -1},
		{Restores: -1},
	}
	for i, n := range bad {
		cfg := base
		cfg.Nemesis = n
		if _, err := Run(cops.New(), cfg); err == nil {
			t.Errorf("bad nemesis %d accepted", i)
		}
	}
	// A bare restore fills in the whole server set.
	cfg := base
	cfg.Txns = 16
	cfg.Nemesis = &Nemesis{Schedule: []sim.Fault{{At: 4_000, Kind: sim.FaultRestore}}}
	rep, err := Run(cops.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nemesis.Restores != 1 || rep.Nemesis.SyncedVersions == 0 {
		t.Fatalf("bare restore did not rebuild the cluster: %+v", rep.Nemesis)
	}
}

// FuzzReconfigSchedule drives arbitrary interleavings of crash, cut,
// replace and restore through a small cops run: whatever the instants,
// targets and loss flags, the run must return (no deadlock), kernel
// message conservation must hold (nextID == delivered + in-flight +
// lost), the schedule must thread through — inserted companion restarts
// included — and the ride-along session verdict must agree with a batch
// re-solve of the surviving history.
func FuzzReconfigSchedule(f *testing.F) {
	f.Add(int64(1), uint16(4000), uint16(9000), uint16(20000), uint16(40000), uint8(0), false)
	f.Add(int64(2), uint16(100), uint16(100), uint16(100), uint16(100), uint8(1), true)
	f.Add(int64(3), uint16(60000), uint16(30000), uint16(65535), uint16(1), uint8(7), true)
	f.Add(int64(4), uint16(0), uint16(0), uint16(1), uint16(2), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, crashAt, cutAt, replaceAt, restoreAt uint16, target uint8, lose bool) {
		srv := sim.ProcessID([]string{"s0", "s1"}[int(target)%2])
		other := sim.ProcessID([]string{"s1", "s0"}[int(target)%2])
		schedule := []sim.Fault{
			{At: sim.Time(crashAt), Kind: sim.FaultCrash, Proc: srv, Lose: lose},
			{At: sim.Time(crashAt) + 5_000, Kind: sim.FaultRestart, Proc: srv},
			{At: sim.Time(cutAt), Kind: sim.FaultCut,
				From: []sim.ProcessID{"s0", "c0"}, To: []sim.ProcessID{"s1", "c1"}},
			{At: sim.Time(cutAt) + 5_000, Kind: sim.FaultHeal,
				From: []sim.ProcessID{"s0", "c0"}, To: []sim.ProcessID{"s1", "c1"}},
			{At: sim.Time(replaceAt), Kind: sim.FaultReplace, Proc: other, Lose: lose},
			{At: sim.Time(restoreAt), Kind: sim.FaultRestore},
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
		if rep.Nemesis == nil || rep.Nemesis.Scheduled < len(schedule) {
			t.Fatalf("schedule not threaded: %+v", rep.Nemesis)
		}
		if rep.History.Len() <= history.MaxTxns {
			batch := history.CheckBatch(rep.History, rep.CertLevel)
			if batch.OK != rep.Cert.OK {
				t.Fatalf("session verdict %v disagrees with batch re-solve %v", rep.Cert.OK, batch.OK)
			}
		}
	})
}
