// Package ptest provides a reusable conformance suite for protocol
// implementations: every modeled system must pass the same lifecycle,
// isolation and measurement checks, plus per-protocol property
// expectations (rounds, blocking, write-transaction support).
package ptest

import (
	"fmt"
	"testing"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Expect describes the measured properties a protocol must exhibit.
type Expect struct {
	// ROTRounds is the exact number of rounds a read-only transaction
	// over two objects takes on the happy path.
	ROTRounds int
	// MaxValuesPerObject is the per-object value bound in responses.
	MaxValuesPerObject int
	// Blocking is whether servers defer read responses.
	Blocking bool
	// MultiWrite is whether multi-object write transactions complete.
	MultiWrite bool
	// Causal is whether randomized workload histories must check causal.
	Causal bool
	// Servers/ObjectsPerServer size the test deployment (default 2/1).
	Servers, ObjectsPerServer int
	// SettleBeforeRead lets asynchronous visibility (cutoff/GST gossip)
	// complete before read-back assertions.
	SettleBeforeRead bool
	// ReadAsWriter makes the write-then-read and measurement checks read
	// from the writing client. Snapshot-based protocols (GentleRain,
	// Orbe, Cure) only guarantee immediate read-back for causally-ahead
	// clients; independent readers see a consistent-but-stale snapshot
	// until stabilization catches up.
	ReadAsWriter bool

	// --- RunLoad (concurrent driver sweep) expectations ---

	// ViolatesUnderLoad marks a known-by-design victim of the theorem
	// (naivefast, twopcfast, eigerps): at least one concurrent sweep
	// must FAIL certification at the claimed consistency level, and the
	// suite errors if every sweep certifies clean.
	ViolatesUnderLoad bool
	// FractureNote marks a protocol whose concurrent certification is
	// expected to fail because of a known modeling gap (eiger, fatcops —
	// see the ROADMAP open item named in the note). When the fracture
	// manifests, the load suite skips with this note; when it does not,
	// the suite passes and logs that the marker may be removable.
	FractureNote string
	// LoadSeeds are the driver seeds the load suite sweeps (default 2).
	// Fracture configurations pin the seeds where the race is known to
	// manifest.
	LoadSeeds []int64
	// FaultFractureNote marks a protocol whose certification is expected
	// to fail only under the RunFaults nemesis sweep (a fault-free-clean
	// protocol whose visibility fractures under the outage's reshuffled
	// delivery). When unset, RunFaults falls back to FractureNote.
	FaultFractureNote string
	// LoadTxns is the transaction count per load run (default 72). The
	// streaming ride-along session has no transaction ceiling (it
	// retires committed prefixes of its closure as the sweep runs), so
	// suites are free to sweep long concurrent windows; violators no
	// longer need a reduced window for refutation to finish. Sweeps at
	// or below history.MaxTxns additionally cross-check the verdict
	// against the batch solver and the non-evicting bounded session.
	LoadTxns int
}

// Deploy builds and initializes a deployment for tests.
func Deploy(t *testing.T, p protocol.Protocol, e Expect, seed int64) *protocol.Deployment {
	t.Helper()
	srv, ops := e.Servers, e.ObjectsPerServer
	if srv == 0 {
		srv = 2
	}
	if ops == 0 {
		ops = 1
	}
	d := protocol.Deploy(p, protocol.Config{Servers: srv, ObjectsPerServer: ops, Clients: 3, Seed: seed})
	if err := d.InitAll(400_000); err != nil {
		t.Fatalf("InitAll: %v", err)
	}
	return d
}

// Run executes the full conformance suite.
func Run(t *testing.T, p protocol.Protocol, e Expect) {
	t.Helper()
	t.Run("InitAndReadBack", func(t *testing.T) { initAndReadBack(t, p, e) })
	t.Run("WriteThenRead", func(t *testing.T) { writeThenRead(t, p, e) })
	t.Run("MeasuredProperties", func(t *testing.T) { measuredProperties(t, p, e) })
	t.Run("MultiWriteSupport", func(t *testing.T) { multiWrite(t, p, e) })
	t.Run("CloneIndependence", func(t *testing.T) { cloneIndependence(t, p, e) })
	t.Run("SequentialHistoryConsistent", func(t *testing.T) { sequentialHistory(t, p, e) })
	if e.Causal {
		t.Run("RandomSchedulesCausal", func(t *testing.T) { randomCausal(t, p, e) })
	}
}

func initAndReadBack(t *testing.T, p protocol.Protocol, e Expect) {
	d := Deploy(t, p, e, 11)
	objs := d.Place.Objects()
	res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, objs[0], objs[1]), 400_000)
	if !res.OK() {
		t.Fatalf("ROT failed: %v", res)
	}
	for _, o := range objs[:2] {
		if res.Value(o) != protocol.InitialValue(o) {
			t.Fatalf("read %s = %q, want initial %q", o, res.Value(o), protocol.InitialValue(o))
		}
	}
}

func writeThenRead(t *testing.T, p protocol.Protocol, e Expect) {
	d := Deploy(t, p, e, 13)
	objs := d.Place.Objects()
	if e.MultiWrite {
		w := model.NewWriteOnly(model.TxnID{},
			model.Write{Object: objs[0], Value: "w-a"}, model.Write{Object: objs[1], Value: "w-b"})
		if res := d.RunTxn("c0", w, 400_000); !res.OK() {
			t.Fatalf("multi-write failed: %v", res)
		}
	} else {
		for i, v := range []model.Value{"w-a", "w-b"} {
			w := model.NewWriteOnly(model.TxnID{}, model.Write{Object: objs[i], Value: v})
			if res := d.RunTxn("c0", w, 400_000); !res.OK() {
				t.Fatalf("write %d failed: %v", i, res)
			}
		}
	}
	if e.SettleBeforeRead {
		d.Settle(400_000)
	}
	reader := sim.ProcessID("c1")
	if e.ReadAsWriter {
		reader = "c0"
	}
	r := d.RunTxn(reader, model.NewReadOnly(model.TxnID{}, objs[0], objs[1]), 400_000)
	if r == nil || !r.OK() {
		t.Fatalf("read after write did not complete: %v", r)
	}
	if r.Value(objs[0]) != "w-a" || r.Value(objs[1]) != "w-b" {
		t.Fatalf("read after write = %v, want w-a/w-b", r.Values)
	}
}

func measuredProperties(t *testing.T, p protocol.Protocol, e Expect) {
	d := Deploy(t, p, e, 17)
	objs := d.Place.Objects()
	// Produce data so responses carry real values.
	if e.MultiWrite {
		d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
			model.Write{Object: objs[0], Value: "m-a"}, model.Write{Object: objs[1], Value: "m-b"}), 400_000)
	} else {
		d.RunTxn("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: objs[0], Value: "m-a"}), 400_000)
		d.RunTxn("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: objs[1], Value: "m-b"}), 400_000)
	}
	reader := sim.ProcessID("c1")
	if e.ReadAsWriter {
		reader = "c0" // read while causally ahead: exercises blocking
	} else {
		d.Settle(400_000)
	}
	from := d.Kernel.Trace().Len()
	res := d.RunTxn(reader, model.NewReadOnly(model.TxnID{}, objs[0], objs[1]), 400_000)
	if res == nil || !res.OK() {
		t.Fatalf("measured ROT failed: %v", res)
	}
	m := spec.MeasureResult(d, from, res)
	if m.Rounds != e.ROTRounds {
		t.Fatalf("rounds = %d, want %d (%s)", m.Rounds, e.ROTRounds, m)
	}
	maxV := e.MaxValuesPerObject
	if maxV == 0 {
		maxV = 1
	}
	if m.MaxValuesPerObject > maxV {
		t.Fatalf("values per object = %d, want <= %d", m.MaxValuesPerObject, maxV)
	}
	if m.Deferred != e.Blocking {
		t.Fatalf("deferred = %v, want %v (%s)", m.Deferred, e.Blocking, m)
	}
}

func multiWrite(t *testing.T, p protocol.Protocol, e Expect) {
	d := Deploy(t, p, e, 19)
	objs := d.Place.Objects()
	w := model.NewWriteOnly(model.TxnID{},
		model.Write{Object: objs[0], Value: "mw-a"}, model.Write{Object: objs[1], Value: "mw-b"})
	res := d.RunTxn("c0", w, 400_000)
	if e.MultiWrite && !res.OK() {
		t.Fatalf("multi-write rejected: %v", res)
	}
	if !e.MultiWrite && res.OK() {
		t.Fatal("multi-write accepted by a protocol without the W property")
	}
	// Claims must agree with behaviour.
	if p.Claims().MultiWriteTxn != e.MultiWrite {
		t.Fatalf("claims.MultiWriteTxn = %v, expected %v", p.Claims().MultiWriteTxn, e.MultiWrite)
	}
}

func cloneIndependence(t *testing.T, p protocol.Protocol, e Expect) {
	d := Deploy(t, p, e, 23)
	objs := d.Place.Objects()
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: objs[0], Value: "cl-a"}))
	snap := d.Kernel.Snapshot()
	cl := d.Client("c0")
	sim.Run(d.Kernel, &sim.RoundRobin{}, func(*sim.Kernel) bool { return !cl.Busy() }, 400_000)
	if cl.Busy() {
		t.Fatal("write did not complete")
	}
	if !snap.Process("c0").(protocol.Client).Busy() {
		t.Fatal("snapshot client shares state with original")
	}
	// The snapshot must be independently runnable to completion too.
	scl := snap.Process("c0").(protocol.Client)
	sim.Run(snap, &sim.RoundRobin{}, func(*sim.Kernel) bool { return !scl.Busy() }, 400_000)
	if scl.Busy() {
		t.Fatal("snapshot run did not complete")
	}
}

// sequentialHistory runs a strictly sequential workload and requires the
// recorded history to be causally consistent (every protocol, even the
// victims, is consistent when transactions never overlap and the system
// settles in between).
func sequentialHistory(t *testing.T, p protocol.Protocol, e Expect) {
	d := Deploy(t, p, e, 29)
	objs := d.Place.Objects()
	h := history.New(d.Initials())
	add := func(res *model.Result) {
		if res == nil || !res.OK() {
			t.Fatalf("sequential txn failed: %v", res)
		}
		h.AddResult(res)
	}
	add(d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, objs[0], objs[1]), 400_000))
	if e.MultiWrite {
		add(d.RunTxn("c0", model.NewWriteOnly(model.TxnID{},
			model.Write{Object: objs[0], Value: "sq-a"}, model.Write{Object: objs[1], Value: "sq-b"}), 400_000))
	} else {
		add(d.RunTxn("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: objs[0], Value: "sq-a"}), 400_000))
		add(d.RunTxn("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: objs[1], Value: "sq-b"}), 400_000))
	}
	d.Settle(400_000)
	add(d.RunTxn("c1", model.NewReadOnly(model.TxnID{}, objs[0], objs[1]), 400_000))
	add(d.RunTxn("c2", model.NewReadOnly(model.TxnID{}, objs[1]), 400_000))
	if v := history.CheckCausal(h); !v.OK {
		t.Fatalf("sequential history not causal: %s\n%s", v.Reason, h)
	}
}

// randomCausal checks causal consistency of concurrent workloads under
// several random schedules. Only protocols that actually guarantee causal
// consistency opt in.
func randomCausal(t *testing.T, p protocol.Protocol, e Expect) {
	for seed := int64(1); seed <= 5; seed++ {
		d := Deploy(t, p, e, seed*100)
		objs := d.Place.Objects()
		h := history.New(d.Initials())
		sched := sim.NewRandom(seed * 7)

		phase := func(invs map[sim.ProcessID]*model.Txn) {
			ids := make(map[sim.ProcessID]model.TxnID)
			for c, txn := range invs {
				ids[c] = d.Invoke(c, txn)
			}
			sim.Run(d.Kernel, sched, func(*sim.Kernel) bool {
				for c := range invs {
					if d.Client(c).Busy() {
						return false
					}
				}
				return true
			}, 400_000)
			for c := range invs {
				res := d.Client(c).Finished(ids[c])
				if res == nil {
					t.Fatalf("seed %d: txn at %s did not complete", seed, c)
				}
				if res.OK() {
					h.AddResult(res)
				}
			}
		}
		mkw := func(tag string) *model.Txn {
			if e.MultiWrite {
				return model.NewWriteOnly(model.TxnID{},
					model.Write{Object: objs[0], Value: model.Value(tag + "0")},
					model.Write{Object: objs[1], Value: model.Value(tag + "1")})
			}
			return model.NewWriteOnly(model.TxnID{}, model.Write{Object: objs[0], Value: model.Value(tag + "0")})
		}
		phase(map[sim.ProcessID]*model.Txn{
			"c0": model.NewReadOnly(model.TxnID{}, objs[0], objs[1]),
			"c1": mkw(fmt.Sprintf("a%d-", seed)),
		})
		phase(map[sim.ProcessID]*model.Txn{
			"c0": mkw(fmt.Sprintf("b%d-", seed)),
			"c1": model.NewReadOnly(model.TxnID{}, objs[0], objs[1]),
			"c2": model.NewReadOnly(model.TxnID{}, objs[1]),
		})
		phase(map[sim.ProcessID]*model.Txn{
			"c0": model.NewReadOnly(model.TxnID{}, objs[0], objs[1]),
			"c2": model.NewReadOnly(model.TxnID{}, objs[0]),
		})
		if v := history.CheckCausal(h); !v.OK {
			t.Fatalf("seed %d: history not causal: %s\n%s", seed, v.Reason, h)
		}
	}
}
