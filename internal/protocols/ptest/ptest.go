// Package ptest provides a reusable conformance suite for protocol
// implementations: every modeled system must pass the same lifecycle,
// isolation and measurement checks, plus per-protocol property
// expectations (rounds, blocking, write-transaction support).
package ptest

import (
	"cmp"
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

	// --- RunLoad, RunFaults and RunReconfig (driver sweep) expectations ---

	// ViolatesUnderLoad marks a known-by-design victim of the theorem
	// (naivefast, twopcfast, eigerps): at least one run of each sweep
	// must FAIL certification at the claimed consistency level, and the
	// suite errors if every run certifies clean. Every other protocol
	// must certify clean on every run.
	ViolatesUnderLoad bool
	// LoadSeeds are the driver seeds every sweep runs (default {2}).
	LoadSeeds []int64
	// LoadTxns is the transaction count per run (default 72). The
	// streaming ride-along session has no transaction ceiling (it
	// retires committed prefixes of its closure as the sweep runs), so
	// suites are free to sweep long concurrent windows. Runs at or below
	// history.MaxTxns additionally cross-check the verdict against the
	// batch solver and the non-evicting bounded session.
	LoadTxns int
}

// size is the deployment e asks for: by default 2 servers, 1 object each.
func (e Expect) size() (servers, objectsPerServer int) {
	return cmp.Or(e.Servers, 2), cmp.Or(e.ObjectsPerServer, 1)
}

// Deploy builds and initializes a deployment for tests.
func Deploy(t *testing.T, p protocol.Protocol, e Expect, seed int64) *protocol.Deployment {
	t.Helper()
	srv, ops := e.size()
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
	// RunLoad's RefusedShapes holds the behaviour to the claim.
	if p.Claims().MultiWriteTxn != e.MultiWrite {
		t.Fatalf("claims.MultiWriteTxn = %v, expected %v", p.Claims().MultiWriteTxn, e.MultiWrite)
	}
}

// refusedShapes holds the model to protocol.Core's rule: read-write is
// refused, and a multi-object write exactly without the MultiWriteTxn
// claim, each with the text a bare Core gives (the protocol package's
// tests pin its wording). A refusal sends nothing and has no rounds; the
// write queued behind it starts on the next step and commits.
func refusedShapes(t *testing.T, p protocol.Protocol, e Expect) {
	d := Deploy(t, p, e, 31)
	objs, cl := d.Place.Objects(), d.Client("c0")
	w0, w1 := model.Write{Object: objs[0], Value: "w0"}, model.Write{Object: objs[1], Value: "w1"}
	for _, s := range []struct {
		txn     *model.Txn
		refused bool
		what    string
	}{
		{&model.Txn{ReadSet: objs[:1], Writes: []model.Write{w1}}, true, "read-write"},
		{model.NewWriteOnly(model.TxnID{}, w0, w1), !p.Claims().MultiWriteTxn, "multi-object write"},
	} {
		core := protocol.NewCore("core", d.Place, p)
		cid := core.Invoke(s.txn.Clone())
		if core.Starting(0) == s.refused {
			t.Fatalf("%s: protocol.Core refuses it: %v, want %v", s.what, !s.refused, s.refused)
		}
		id, next := d.Invoke("c0", s.txn), d.Invoke("c0", model.NewWriteOnly(model.TxnID{}, w0))
		sent := d.Kernel.StepProcess("c0")
		if s.refused {
			want := core.Finished(cid).Err
			if res := cl.Finished(id); res == nil || res.Err != want || res.Rounds != 0 || len(sent) != 0 {
				t.Fatalf("%s: result %+v after sending %d; want refused with %q, no rounds, nothing sent", s.what, res, len(sent), want)
			}
			if sent = d.Kernel.StepProcess("c0"); len(sent) == 0 {
				t.Fatalf("%s: the write queued behind the refusal did not start on the next step", s.what)
			}
		}
		sim.Run(d.Kernel, &sim.RoundRobin{}, func(*sim.Kernel) bool { return !cl.Busy() }, 400_000)
		if res := cl.Finished(id); !s.refused && (res == nil || !res.OK()) {
			t.Fatalf("%s: accepted, then finished as %+v", s.what, res)
		}
		if res := cl.Finished(next); res == nil || !res.OK() {
			t.Fatalf("%s: the write queued behind it finished as %+v", s.what, res)
		}
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
