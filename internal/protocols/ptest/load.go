package ptest

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// loadRate is the open-loop offered rate (transactions per virtual
// second) of the conformance sweep: moderate load for every modeled
// protocol — inter-arrival 1ms against service latencies of 2–8ms keeps
// a handful of transactions in flight without collapsing into pure
// queueing.
const loadRate = 1000

// RunLoad drives the protocol through the concurrent sweep — one
// closed-loop and one open-loop run per seed. It is the concurrency
// counterpart of Run's sequential suite: every protocol must survive real
// overlap, and the theorem's victims must be caught violating. Every run
// is held to sweep's contract.
func RunLoad(t *testing.T, p protocol.Protocol, e Expect) {
	t.Helper()
	t.Run("PayloadsImmutable", func(t *testing.T) { payloadsImmutable(t, p, e) })
	t.Run("InboxNotRetained", func(t *testing.T) { inboxNotRetained(t, p, e) })
	t.Run("RefusedShapes", func(t *testing.T) { refusedShapes(t, p, e) })
	t.Run("ReadinessIsState", func(t *testing.T) {
		if err := readinessViolation(p, e); err != nil {
			t.Error(err)
		}
	})
	sweep(t, p, e, "load", []sweepRun{
		{mode: "closed-loop"},
		{mode: "open-loop", rate: loadRate, check: func(rep *driver.Report) error {
			if rep.QueueDelay.N != rep.Committed {
				return fmt.Errorf("%d queueing samples for %d commits", rep.QueueDelay.N, rep.Committed)
			}
			return nil
		}},
	})
}

// RunFaults drives the protocol through the nemesis sweep: one
// persistent crash→restart cycle and one partition→heal cycle per seed.
// Persistence makes every fault observationally a long delay — held
// traffic is released, never dropped — so a protocol that certifies clean
// fault-free must certify clean here too, and the theorem's victims must
// stay caught when the network misbehaves, not only when it is slow.
func RunFaults(t *testing.T, p protocol.Protocol, e Expect) {
	t.Helper()
	sweep(t, p, e, "fault", []sweepRun{
		// Persistent crash: state and inbox survive the outage.
		{mode: "crash", nem: &driver.Nemesis{Crashes: 1, Start: 5_000, Duration: 8_000}, check: faulted},
		// Full bisection: every link across the cut severed, then healed.
		{mode: "partition", nem: &driver.Nemesis{Partitions: 1, Start: 5_000, Duration: 8_000}, check: faulted},
	})
}

// RunReconfig drives the protocol through the reconfiguration sweep: one
// replica replacement (a fresh process adopts a dead server's shard,
// re-syncs from the durable image and live peers, and serves only once
// caught up) and one coordinated whole-cluster restore per seed. Both
// cycles are non-lossy, so they hold a protocol to what RunFaults does.
func RunReconfig(t *testing.T, p protocol.Protocol, e Expect) {
	t.Helper()
	sweep(t, p, e, "reconfiguration", []sweepRun{
		// One replacement cycle (fires at Start+Period/4 = 9000): the
		// target is killed, a replacement adopts its shard and catches up,
		// the companion restart brings it back once synced.
		{mode: "replace", nem: &driver.Nemesis{Replaces: 1, Start: 4_000, Period: 20_000}, check: reconfigured},
		// One coordinated restore cycle (fires at Start+3·Period/4 =
		// 10000): every server stops together and rebuilds from its
		// durable snapshot.
		{mode: "restore", nem: &driver.Nemesis{Restores: 1, Start: 4_000, Period: 8_000}, check: reconfigured},
	})
}

// sweepRun is one run of a sweep: its name, offered rate (0 is closed
// loop), fault schedule (nil is fault-free) and the check only it makes.
type sweepRun struct {
	mode  string
	rate  float64
	nem   *driver.Nemesis
	check func(*driver.Report) error
}

// faulted is what a persistent fault schedule promises: a fault applied,
// an outage measured and no message lost.
func faulted(rep *driver.Report) error {
	switch n := rep.Nemesis; {
	case n == nil || n.Applied == 0:
		return fmt.Errorf("no fault applied: %+v", n)
	case n.UnavailableTime <= 0:
		return errors.New("fault applied but no unavailability window")
	case n.LostMessages != 0:
		return fmt.Errorf("persistent faults lost %d messages", n.LostMessages)
	}
	return nil
}

// reconfigured is faulted plus what a reconfiguration promises: every
// scheduled fault applied, companion restarts included, and the
// replacement adopting state before it serves.
func reconfigured(rep *driver.Report) error {
	switch n := rep.Nemesis; {
	case n == nil || n.Replacements+n.Restores == 0:
		return fmt.Errorf("no reconfiguration applied: %+v", n)
	case n.Applied != n.Scheduled:
		return fmt.Errorf("applied %d of %d scheduled faults (companion restarts included)", n.Applied, n.Scheduled)
	case n.SyncedVersions == 0 || n.SyncTime <= 0:
		return fmt.Errorf("replacement adopted no state (synced=%d, sync time %d)", n.SyncedVersions, n.SyncTime)
	}
	return faulted(rep)
}

// sweep executes every run once per seed on the deployment Expect sizes,
// unreplicated and with every object on two servers, certified ride-along
// at the protocol's claimed consistency level, and holds each to one
// contract: every transaction completes and is accounted for, the run's
// own check passes, the ride-along session agrees with the batch solver
// (driver.Run's own cross-check, an error when it fails) and with the
// non-evicting bounded session (first offence included), and
// a refutation is pinned to a first offending commit in range whose
// witness prefix has that length and itself refutes. A victim must be
// refuted by at least one run at each replication; any other protocol
// must certify clean on all of them.
func sweep(t *testing.T, p protocol.Protocol, e Expect, suite string, runs []sweepRun) {
	t.Helper()
	seeds := e.LoadSeeds
	if len(seeds) == 0 {
		seeds = []int64{2}
	}
	txns := e.LoadTxns
	if txns == 0 {
		txns = 72
	}
	srv, ops := e.size()
	level := p.Claims().Consistency

	violations := map[int]int{} // refuted runs per replication
	for _, r := range runs {
		for _, seed := range seeds {
			for _, repl := range []int{1, 2} {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s run (seed %d, replication %d): %s", r.mode, seed, repl, fmt.Sprintf(format, args...))
				}
				cfg := driver.Config{
					Clients: 8, Txns: txns, Mix: workload.Balanced(), Seed: seed,
					Servers: srv, ObjectsPerServer: ops, Replication: repl,
					RecordHistory: true, Rate: r.rate, Certify: true,
				}
				if r.nem != nil {
					nem := *r.nem // the driver fills in defaults
					cfg.Nemesis = &nem
				}
				rep, err := driver.Run(p, cfg)
				if err != nil {
					fail("%v", err)
				}
				if rep.Incomplete != 0 {
					fail("%d transactions incomplete", rep.Incomplete)
				}
				if rep.Committed+rep.Rejected != rep.Issued {
					fail("committed %d + rejected %d != issued %d", rep.Committed, rep.Rejected, rep.Issued)
				}
				if r.check != nil {
					if err := r.check(rep); err != nil {
						fail("%v", err)
					}
				}
				v := *rep.Cert
				// driver.Run has already held the session to the batch
				// solver on the recorded history: a disagreement is its error.
				if rep.History.Len() <= history.MaxTxns {
					// Eviction may change what is retained, never what is
					// accepted. (Past history.MaxTxns the bounded session
					// refuses; the sweeps stay far below.)
					if want := history.CheckIncremental(rep.History, level); want.OK != v.OK ||
						want.FirstViolation != v.FirstViolation {
						fail("evicting session OK=%v fv=%d (%s); bounded session OK=%v fv=%d (%s)",
							v.OK, v.FirstViolation, v.Reason, want.OK, want.FirstViolation, want.Reason)
					}
				}
				if !v.OK {
					if v.FirstViolation < 0 || v.FirstViolation >= rep.History.Len() {
						fail("first violation index %d out of range: %s", v.FirstViolation, v.Reason)
					}
					if len(v.WitnessPrefix) != v.FirstViolation+1 {
						fail("witness prefix has %d entries for first violation %d",
							len(v.WitnessPrefix), v.FirstViolation)
					}
					if pv := history.CheckBatch(rep.History.Prefix(v.FirstViolation+1), level); pv.OK {
						fail("prefix through first offending commit %d certifies clean", v.FirstViolation)
					}
				}
				switch {
				case v.OK:
				case e.ViolatesUnderLoad:
					violations[repl]++
				default:
					fail("violates claimed %s: %s\n%s", level, v.Reason, rep.History)
				}
			}
		}
	}
	for _, repl := range []int{1, 2} {
		if e.ViolatesUnderLoad && violations[repl] == 0 {
			t.Fatalf("%s is a known %s violator, but every %s run at replication %d certified clean — "+
				"the %s suite lost its teeth (seeds %v, %d txns)", p.Name(), level, suite, repl, suite, seeds, txns)
		}
	}
}
