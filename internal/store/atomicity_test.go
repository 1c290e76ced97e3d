package store

import (
	"testing"

	"repro/internal/model"
	"repro/internal/vclock"
)

// TestSnapshotReadVecUniformAcrossInstallOrders pins the cure
// write-atomicity fix: two servers that install the same pair of
// concurrent multi-object transactions in OPPOSITE orders must serve the
// same winner for the same snapshot, so no reader can observe one
// transaction's write on one server and the other's on the second — a
// half-visible transaction. The regression this guards: selecting by
// install order instead of the uniform vector order fractures atomic
// visibility exactly this way.
func TestSnapshotReadVecUniformAcrossInstallOrders(t *testing.T) {
	// Transactions A and B both write X0 and X1 with concurrent commit
	// vectors: A committed first at server 0, B first at server 1.
	vecA := vclock.Vector{5, 1}
	vecB := vclock.Vector{1, 5}
	tidA := model.TxnID{Client: "ca", Seq: 1}
	tidB := model.TxnID{Client: "cb", Seq: 1}
	mk := func(obj string, val model.Value, tid model.TxnID, vec vclock.Vector) *Version {
		return &Version{Object: obj, Value: val, Writer: tid, Vec: vec.Clone(), Visible: true}
	}

	// s0 installs A then B; s1 installs B then A (prepare/commit
	// deliveries raced in opposite orders). Cure-style servers install
	// through InstallOrdered, so both chains land in the uniform order.
	s0 := New("X0", "X1")
	s0.InstallOrdered(mk("X0", "a0", tidA, vecA))
	s0.InstallOrdered(mk("X1", "a1", tidA, vecA))
	s0.InstallOrdered(mk("X0", "b0", tidB, vecB))
	s0.InstallOrdered(mk("X1", "b1", tidB, vecB))
	s1 := New("X0", "X1")
	s1.InstallOrdered(mk("X1", "b1", tidB, vecB))
	s1.InstallOrdered(mk("X0", "b0", tidB, vecB))
	s1.InstallOrdered(mk("X1", "a1", tidA, vecA))
	s1.InstallOrdered(mk("X0", "a0", tidA, vecA))

	// A snapshot covering both transactions: a reader fetching X0 from
	// s0 and X1 from s1 must be handed the SAME transaction's writes.
	snap := vclock.Vector{5, 5}
	v0 := s0.SnapshotReadVec("X0", snap)
	v1 := s1.SnapshotReadVec("X1", snap)
	if v0 == nil || v1 == nil {
		t.Fatalf("snapshot read returned nil: %v %v", v0, v1)
	}
	if v0.Writer != v1.Writer {
		t.Fatalf("half-visible transaction: X0 from s0 by %s, X1 from s1 by %s",
			v0.Writer, v1.Writer)
	}
	// And every object individually agrees across servers.
	for _, obj := range []string{"X0", "X1"} {
		a, b := s0.SnapshotReadVec(obj, snap), s1.SnapshotReadVec(obj, snap)
		if a.Writer != b.Writer || a.Value != b.Value {
			t.Fatalf("servers disagree on %s: %s vs %s", obj, a, b)
		}
	}

	// Visible versions are indexed in the version order whatever order
	// they arrived in, so BOTH servers hold identical indexes despite
	// installing in opposite orders — which is what lets SnapshotReadVec
	// stop at the first covered version from the tail.
	for _, obj := range []string{"X0", "X1"} {
		c0, c1 := s0.visible(obj), s1.visible(obj)
		if len(c0) != 2 || len(c1) != 2 {
			t.Fatalf("index lengths: %d vs %d, want 2", len(c0), len(c1))
		}
		for i := range c0 {
			if c0[i].Writer != c1[i].Writer {
				t.Fatalf("%s indexes ordered differently at %d: %s vs %s",
					obj, i, c0[i].Writer, c1[i].Writer)
			}
		}
		if stampCompare(c0[1], c0[0]) < 0 {
			t.Fatalf("%s index not in version order: %s before %s",
				obj, c0[0], c0[1])
		}
	}
}

// TestSnapshotReadVecExcludesUncovered: a version above the snapshot in
// any component is outside it, even when the other component is far
// ahead — partial coverage must not leak a half-committed transaction.
func TestSnapshotReadVecExcludesUncovered(t *testing.T) {
	s := New("X0")
	s.Install(&Version{Object: "X0", Value: "old", Writer: model.TxnID{Client: "c", Seq: 1},
		Vec: vclock.Vector{1, 1}, Visible: true})
	s.Install(&Version{Object: "X0", Value: "new", Writer: model.TxnID{Client: "c", Seq: 2},
		Vec: vclock.Vector{2, 9}, Visible: true})
	v := s.SnapshotReadVec("X0", vclock.Vector{8, 8})
	if v == nil || v.Value != "old" {
		t.Fatalf("snapshot {8,8} read %v, want the covered version 'old'", v)
	}
}
