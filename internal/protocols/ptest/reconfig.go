package ptest

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// RunReconfig drives the protocol through the standard reconfiguration
// sweep: one replica replacement (a fresh process adopts a dead server's
// shard, re-syncs from the durable image and live peers, and serves only
// once caught up) and one coordinated whole-cluster restore, each
// certified ride-along at the protocol's claimed consistency level. Both
// cycles are
// non-lossy — the durable image reattaches, held traffic is delayed and
// never dropped — so a protocol that certifies clean fault-free must
// certify clean through a reconfiguration too, losing nothing: this is
// the conformance half of the reconfiguration layer's contract, the
// reconfiguration mirror of RunFaults.
//
// Expectations reuse the load fields of Expect exactly as RunFaults does:
// ViolatesUnderLoad requires at least one reconfigured sweep to fail
// certification; FaultFractureNote (or FractureNote)
// marks a known modeling gap as expected-failing; otherwise every sweep
// must certify clean, complete every transaction once the replacement has
// caught up, and lose no messages.
func RunReconfig(t *testing.T, p protocol.Protocol, e Expect) {
	t.Helper()
	seeds := e.LoadSeeds
	if len(seeds) == 0 {
		seeds = []int64{2}
	}
	txns := e.LoadTxns
	if txns == 0 {
		txns = 72
	}
	srv, ops := e.Servers, e.ObjectsPerServer
	if srv == 0 {
		srv = 2
	}
	if ops == 0 {
		ops = 1
	}
	fracture := e.FaultFractureNote
	if fracture == "" {
		fracture = e.FractureNote
	}
	level := p.Claims().Consistency

	schedules := []struct {
		name string
		nem  func() *driver.Nemesis
	}{
		// One replacement cycle (fires at Start+Period/4 = 9000): the
		// target is killed, a replacement adopts its shard and catches up,
		// the companion restart brings it back once synced.
		{"replace", func() *driver.Nemesis {
			return &driver.Nemesis{Replaces: 1, Start: 4_000, Period: 20_000}
		}},
		// One coordinated restore cycle (fires at Start+3·Period/4 =
		// 10000): every server stops together and rebuilds from its
		// durable snapshot.
		{"restore", func() *driver.Nemesis {
			return &driver.Nemesis{Restores: 1, Start: 4_000, Period: 8_000}
		}},
	}
	violations := 0
	for _, sched := range schedules {
		for _, seed := range seeds {
			mode := sched.name
			rep, err := driver.Run(p, driver.Config{
				Clients: 8, Txns: txns, Mix: workload.Balanced(), Seed: seed,
				Servers: srv, ObjectsPerServer: ops,
				RecordHistory: true, Certify: true,
				Nemesis: sched.nem(),
			})
			if err != nil {
				t.Fatalf("%s sweep (seed %d): %v", mode, seed, err)
			}
			if rep.Incomplete != 0 {
				t.Fatalf("%s sweep (seed %d): %d transactions incomplete after the replacement caught up",
					mode, seed, rep.Incomplete)
			}
			n := rep.Nemesis
			if n == nil || n.Replacements+n.Restores == 0 {
				t.Fatalf("%s sweep (seed %d): no reconfiguration applied: %+v", mode, seed, n)
			}
			if n.Applied != n.Scheduled {
				t.Fatalf("%s sweep (seed %d): applied %d of %d scheduled faults (companion restarts included)",
					mode, seed, n.Applied, n.Scheduled)
			}
			if n.SyncedVersions == 0 || n.SyncTime <= 0 {
				t.Fatalf("%s sweep (seed %d): replacement adopted no state (synced=%d, sync time %d)",
					mode, seed, n.SyncedVersions, n.SyncTime)
			}
			if n.UnavailableTime <= 0 {
				t.Fatalf("%s sweep (seed %d): reconfiguration applied but no unavailability window",
					mode, seed)
			}
			if n.LostMessages != 0 {
				t.Fatalf("%s sweep (seed %d): non-lossy reconfiguration lost %d messages",
					mode, seed, n.LostMessages)
			}
			v := *rep.Cert
			if rep.History.Len() <= history.MaxTxns {
				// The ride-along session and the batch solver must agree
				// across a reconfiguration exactly as fault-free.
				if batch := history.CheckBatch(rep.History, level); batch.OK != v.OK {
					t.Fatalf("%s sweep (seed %d): ride-along session says OK=%v (%s), batch says OK=%v (%s)",
						mode, seed, v.OK, v.Reason, batch.OK, batch.Reason)
				}
			}
			if !v.OK {
				// Every refutation — expected or not — must be pinned to
				// a first offending commit whose prefix itself refutes.
				if v.FirstViolation < 0 || v.FirstViolation >= rep.History.Len() {
					t.Fatalf("%s sweep (seed %d): first violation index %d out of range: %s",
						mode, seed, v.FirstViolation, v.Reason)
				}
				if pv := history.CheckBatch(rep.History.Prefix(v.FirstViolation+1), level); pv.OK {
					t.Fatalf("%s sweep (seed %d): prefix through first offending commit %d certifies clean",
						mode, seed, v.FirstViolation)
				}
			}
			switch {
			case v.OK:
				// Certified clean through the reconfiguration.
			case e.ViolatesUnderLoad:
				violations++
			case fracture != "":
				t.Skipf("known fracture under faults (%s): %s seed %d: %s",
					fracture, mode, seed, v.Reason)
			default:
				t.Fatalf("%s sweep (seed %d) violates claimed %s: %s\n%s",
					mode, seed, level, v.Reason, rep.History)
			}
		}
	}
	if e.ViolatesUnderLoad && violations == 0 {
		t.Fatalf("%s is a known %s violator, but every reconfigured sweep certified clean — "+
			"the reconfiguration suite lost its teeth (seeds %v, %d txns)", p.Name(), level, seeds, txns)
	}
}
