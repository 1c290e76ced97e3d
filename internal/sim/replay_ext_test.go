package sim_test

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/copssnow"
	"repro/internal/protocols/wren"
	"repro/internal/sim"
)

// TestReplayDeterminismOnRealProtocols checks the property the entire
// adversary machinery rests on: recording a run of a real protocol under a
// random schedule and replaying its script on a snapshot of the starting
// configuration reproduces the exact same results. Deterministic process
// behaviour + script replay = the paper's indistinguishability arguments.
func TestReplayDeterminismOnRealProtocols(t *testing.T) {
	protos := []protocol.Protocol{copssnow.New(), wren.New()}
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw) + 1
		p := protos[int(seed)%len(protos)]
		d := protocol.Deploy(p, protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: seed})
		if err := d.InitAll(400_000); err != nil {
			return false
		}
		objs := d.Place.Objects()

		// Invoke one write and one read concurrently; snapshot BEFORE any
		// scheduling happens.
		var wtxn *model.Txn
		if p.Claims().MultiWriteTxn {
			wtxn = model.NewWriteOnly(model.TxnID{},
				model.Write{Object: objs[0], Value: "r0"}, model.Write{Object: objs[1], Value: "r1"})
		} else {
			wtxn = model.NewWriteOnly(model.TxnID{}, model.Write{Object: objs[0], Value: "r0"})
		}
		wid := d.Invoke("c0", wtxn)
		rid := d.Invoke("c1", model.NewReadOnly(model.TxnID{}, objs[0], objs[1]))
		base := d.Kernel.Snapshot()

		// Record a random-schedule run to completion of both.
		from := d.Kernel.Trace().Len()
		sim.Run(d.Kernel, sim.NewRandom(seed*13+1), func(*sim.Kernel) bool {
			return !d.Client("c0").Busy() && !d.Client("c1").Busy()
		}, 400_000)
		script := sim.ScriptOf(d.Kernel.Trace().Since(from))

		// Replay on the snapshot.
		rd := d.At(base)
		sched := &sim.Scripted{Steps: script}
		sim.Run(base, sched, nil, len(script)+16)
		if sched.Err != nil {
			t.Logf("seed %d: replay diverged: %v", seed, sched.Err)
			return false
		}
		origW := d.Client("c0").Finished(wid)
		origR := d.Client("c1").Finished(rid)
		replW := rd.Client("c0").Finished(wid)
		replR := rd.Client("c1").Finished(rid)
		if (origW == nil) != (replW == nil) || (origR == nil) != (replR == nil) {
			return false
		}
		if origR != nil && replR != nil {
			for _, obj := range objs {
				if origR.Value(obj) != replR.Value(obj) {
					t.Logf("seed %d: replay read mismatch on %s: %q vs %q",
						seed, obj, origR.Value(obj), replR.Value(obj))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotTransitivity: snapshots of snapshots behave identically to
// first-generation snapshots — the adversary nests them several deep.
func TestSnapshotTransitivity(t *testing.T) {
	d := protocol.Deploy(copssnow.New(), protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 77})
	if err := d.InitAll(400_000); err != nil {
		t.Fatal(err)
	}
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{}, model.Write{Object: "X0", Value: "g1"}))

	s1 := d.Kernel.Snapshot()
	s2 := s1.Snapshot()
	s3 := s2.Snapshot()

	for i, k := range []*sim.Kernel{s1, s2, s3} {
		dd := d.At(k)
		cl := dd.Client("c0")
		sim.Run(k, &sim.RoundRobin{}, func(*sim.Kernel) bool { return !cl.Busy() }, 400_000)
		if cl.Busy() {
			t.Fatalf("generation %d snapshot did not complete the write", i+1)
		}
		res := dd.RunTxn("c1", model.NewReadOnly(model.TxnID{}, "X0"), 400_000)
		if res.Value("X0") != "g1" {
			t.Fatalf("generation %d snapshot read %v", i+1, res.Values)
		}
	}
	// The original is untouched: its write is still pending.
	if !d.Client("c0").Busy() {
		t.Fatal("original kernel was disturbed by snapshot runs")
	}
}
