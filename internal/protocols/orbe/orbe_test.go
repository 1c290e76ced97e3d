package orbe

import (
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/ptest"
	"repro/internal/sim"
	"repro/internal/vclock"
)

func TestConformance(t *testing.T) {
	ptest.Run(t, New(), ptest.Expect{
		ROTRounds:  2, // stable-vector fetch + reads
		Blocking:   false,
		MultiWrite: false,
		Causal:     true,
	})
}

// TestParkPathServesWhenCounterCatchesUp exercises the blocking path
// directly (white-box): a read whose snapshot entry is ahead of the
// server's applied counter parks, and is served once a later write
// advances the counter. In the single-cluster deployments of the other
// tests this path never triggers (clients' snapshots always trail their
// completed operations); in Orbe's geo-replicated setting replication lag
// makes it the common case — hence N=no in Table 1.
func TestParkPathServesWhenCounterCatchesUp(t *testing.T) {
	pl := protocol.Disjoint(2, 1)
	srv := New().NewServer("s0", pl).(*server)

	// Craft a read at snapshot (2, 0) while s0 has applied only 1 write.
	writeMsg := &sim.Message{From: "c9", To: "s0", Payload: &writeReq{
		TID: model.TxnID{Client: "c9", Seq: 1},
		W:   model.Write{Object: "X0", Value: "v1"},
		Dep: vclock.NewVector(2),
	}}
	srv.Step(1, []*sim.Message{writeMsg})

	readMsg := &sim.Message{From: "r9", To: "s0", Payload: &readReq{
		TID:  model.TxnID{Client: "r9", Seq: 1},
		Objs: []string{"X0"},
		Snap: vclock.Vector{2, 0},
	}}
	out := srv.Step(2, []*sim.Message{readMsg})
	for _, o := range out {
		if _, isResp := o.Payload.(*readResp); isResp {
			t.Fatal("read served although snapshot is ahead of applied counter")
		}
	}
	if len(srv.parked) != 1 {
		t.Fatalf("parked = %d, want 1", len(srv.parked))
	}

	// A second write advances the counter to 2; the parked read must be
	// served on the next step, with the new value.
	writeMsg2 := &sim.Message{From: "c9", To: "s0", Payload: &writeReq{
		TID: model.TxnID{Client: "c9", Seq: 2},
		W:   model.Write{Object: "X0", Value: "v2"},
		Dep: vclock.NewVector(2),
	}}
	srv.Step(3, []*sim.Message{writeMsg2})
	out = srv.Step(4, nil)
	served := false
	for _, o := range out {
		if resp, isResp := o.Payload.(*readResp); isResp {
			served = true
			if resp.Vals[0].Ref.Value != "v2" {
				t.Fatalf("parked read returned %q, want v2", resp.Vals[0].Ref.Value)
			}
		}
	}
	if !served {
		t.Fatal("parked read never served after counter caught up")
	}
}

// TestLoadConformance certifies concurrent closed- and open-loop driver
// sweeps at the claimed consistency level.
func TestLoadConformance(t *testing.T) {
	ptest.RunLoad(t, New(), ptest.Expect{LoadTxns: 96})
}

// TestFaultConformance certifies the standard persistent crash+restart
// and partition+heal nemesis sweeps (ptest.RunFaults semantics).
func TestFaultConformance(t *testing.T) {
	ptest.RunFaults(t, New(), ptest.Expect{})
}

// TestReconfigConformance certifies the standard replica-replacement and
// whole-cluster-restore sweeps (ptest.RunReconfig semantics): non-lossy
// reconfiguration must lose nothing.
func TestReconfigConformance(t *testing.T) {
	ptest.RunReconfig(t, New(), ptest.Expect{})
}
