package ptest

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// RunFaults drives the protocol through the standard nemesis sweep: one
// persistent crash→restart cycle and one partition→heal cycle, each
// certified ride-along at the protocol's claimed consistency level.
// Persistence makes
// every fault observationally a long delay — held traffic is released,
// never dropped — so a protocol that certifies clean fault-free must
// certify clean here too: the sweep is the conformance half of the
// nemesis layer's contract, the mirror of RunLoad for faulted schedules.
//
// Expectations reuse the load fields of Expect: ViolatesUnderLoad
// requires at least one faulted sweep to fail certification (the
// theorem's victims must stay caught when the network misbehaves, not
// only when it is merely slow); FaultFractureNote (or,
// if unset, FractureNote) marks a known modeling gap as expected-failing
// under faults; otherwise every sweep must certify clean, complete every
// transaction after heal, and lose no messages.
func RunFaults(t *testing.T, p protocol.Protocol, e Expect) {
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
		// Persistent crash: state and inbox survive the outage.
		{"crash", func() *driver.Nemesis {
			return &driver.Nemesis{Crashes: 1, Start: 5_000, Duration: 8_000}
		}},
		// Full bisection: every link across the cut severed, then healed.
		{"partition", func() *driver.Nemesis {
			return &driver.Nemesis{Partitions: 1, Start: 5_000, Duration: 8_000}
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
				t.Fatalf("%s sweep (seed %d): %d transactions incomplete after heal",
					mode, seed, rep.Incomplete)
			}
			n := rep.Nemesis
			if n == nil || n.Applied == 0 {
				t.Fatalf("%s sweep (seed %d): no fault applied: %+v", mode, seed, n)
			}
			if n.LostMessages != 0 {
				t.Fatalf("%s sweep (seed %d): persistent faults lost %d messages",
					mode, seed, n.LostMessages)
			}
			if n.UnavailableTime <= 0 {
				t.Fatalf("%s sweep (seed %d): fault applied but no unavailability window",
					mode, seed)
			}
			v := *rep.Cert
			if rep.History.Len() <= history.MaxTxns {
				// The ride-along session and the batch solver must agree
				// on faulted schedules exactly as on fault-free ones.
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
				// Certified clean across the fault.
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
		t.Fatalf("%s is a known %s violator, but every faulted sweep certified clean — "+
			"the fault suite lost its teeth (seeds %v, %d txns)", p.Name(), level, seeds, txns)
	}
}
