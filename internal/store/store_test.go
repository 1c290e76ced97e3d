package store

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/vclock"
)

func tid(c string, n int) model.TxnID { return model.TxnID{Client: c, Seq: n} }

func TestInstallAssignsMonotoneSeq(t *testing.T) {
	s := New("X")
	for i := 1; i <= 5; i++ {
		v := s.Install(&Version{Object: "X", Value: model.Value(fmt.Sprint(i)), Writer: tid("c", i)})
		if v.Seq != int64(i) {
			t.Fatalf("seq = %d, want %d", v.Seq, i)
		}
	}
	if len(s.Versions("X")) != 5 {
		t.Fatalf("chain length = %d", len(s.Versions("X")))
	}
}

func TestInstallUnhostedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("X").Install(&Version{Object: "Y"})
}

func TestVisibilityGate(t *testing.T) {
	s := New("X")
	s.Install(&Version{Object: "X", Value: "old", Writer: tid("init", 0), Visible: true})
	s.Install(&Version{Object: "X", Value: "new", Writer: tid("w", 1)})

	if got := s.LatestVisible("X"); got == nil || got.Value != "old" {
		t.Fatalf("latest visible = %v, want old", got)
	}
	s.Commit(tid("nobody", 9)) // nothing prepared: publishes nothing
	if got := s.LatestVisible("X"); got == nil || got.Value != "old" {
		t.Fatalf("latest visible after a foreign commit = %v, want old", got)
	}
	s.Commit(tid("w", 1))
	if got := s.LatestVisible("X"); got == nil || got.Value != "new" {
		t.Fatalf("latest visible after commit = %v, want new", got)
	}
}

func TestFind(t *testing.T) {
	s := New("X")
	s.Install(&Version{Object: "X", Value: "a", Writer: tid("c", 1)})
	if v := s.Find("X", tid("c", 1)); v == nil || v.Value != "a" {
		t.Fatal("Find failed")
	}
	if v := s.Find("X", tid("c", 2)); v != nil {
		t.Fatal("Find of absent writer returned a version")
	}
}

// TestCloneIsDeep pins the clone contract: what the store changes after
// Install (visibility, vectors, the chain indexes) is the clone's own,
// while Meta, never written after Install, is shared.
func TestCloneIsDeep(t *testing.T) {
	s := New("X")
	meta := []string{"Y"}
	v := s.Install(&Version{
		Object: "X", Value: "a", Writer: tid("c", 1), Visible: false,
		Meta: meta, Vec: vclock.Vector{1, 2},
	})
	c := s.Clone()
	cv := c.Versions("X")[0]
	c.CommitVec(tid("c", 1), vclock.Vector{3, 4})
	c.Install(&Version{Object: "X", Value: "b", Writer: tid("c", 2), Visible: true})

	if v.Visible || v.Vec[0] != 1 || s.LatestVisible("X") != nil {
		t.Fatalf("committing in the clone published or restamped the original: %v %v", v, v.Vec)
	}
	if len(s.Versions("X")) != 1 || s.Find("X", tid("c", 2)) != nil || s.Find("X", tid("c", 1)) != v {
		t.Fatal("installing in the clone changed the original's chain")
	}
	s.Commit(tid("c", 1))
	if !v.Visible || c.LatestVisible("X").Value != "b" || len(c.visible("X")) != 2 {
		t.Fatal("the original's prepared set or visible index is the clone's")
	}
	if cv == v || &cv.Meta.([]string)[0] != &meta[0] {
		t.Fatal("the clone copied what it should share: the version itself is not, Meta is")
	}
}

func TestObjectsSorted(t *testing.T) {
	s := New("Z", "A", "M")
	objs := s.Objects()
	if len(objs) != 3 || objs[0] != "A" || objs[1] != "M" || objs[2] != "Z" {
		t.Fatalf("objects = %v", objs)
	}
	if !s.Hosts("M") || s.Hosts("Q") {
		t.Fatal("Hosts wrong")
	}
}

// Property: LatestVisible always returns the version with the highest Seq
// among visible versions.
func TestLatestVisibleIsMaxSeqProperty(t *testing.T) {
	f := func(visibles []bool) bool {
		s := New("X")
		var wantSeq int64
		for i, vis := range visibles {
			v := s.Install(&Version{Object: "X", Value: model.Value(fmt.Sprint(i)), Writer: tid("c", i), Visible: vis})
			if vis {
				wantSeq = v.Seq
			}
		}
		got := s.LatestVisible("X")
		if wantSeq == 0 {
			return got == nil
		}
		return got != nil && got.Seq == wantSeq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInstallNeverReorders pins the plain-Install contract the
// install-order protocols (orbe's per-server counters, every Latest
// reader) rely on: chains built by Install stay in exact install order
// even when vector timestamps arrive wildly out of uniform order, and
// Latest keeps returning the most recent install.
func TestInstallNeverReorders(t *testing.T) {
	s := New("X")
	s.Install(&Version{Object: "X", Value: "first", Writer: tid("a", 1), Vec: vclock.Vector{5, 1}, Visible: true})
	s.Install(&Version{Object: "X", Value: "second", Writer: tid("b", 1), Vec: vclock.Vector{0, 2}, Visible: true})
	chain := s.Versions("X")
	if chain[0].Value != "first" || chain[1].Value != "second" {
		t.Fatalf("plain Install reordered the chain: %v %v", chain[0], chain[1])
	}
	snap := vclock.Vector{9, 9}
	got := s.Latest("X", func(v *Version) bool { return v.Visible && v.Vec.LessEq(snap) })
	if got == nil || got.Value != "second" {
		t.Fatalf("Latest = %v, want the most recent install", got)
	}
}

// TestInstallOrderedKeepsUniformVectorOrder pins the ordering invariant
// behind SnapshotReadVec's early exit: whatever order vectored versions
// are installed in, the visible index ends up sorted by the version
// order, with Seq and the chain still recording install order.
func TestInstallOrderedKeepsUniformVectorOrder(t *testing.T) {
	vecs := []vclock.Vector{{5, 1}, {1, 5}, {3, 3}, {1, 5}, {0, 9}}
	perm := []int{3, 0, 4, 2, 1} // adversarial install order
	s := New("X")
	for install, idx := range perm {
		v := s.InstallOrdered(&Version{Object: "X", Value: model.Value(fmt.Sprint(idx)),
			Writer: tid(fmt.Sprintf("c%d", idx), 1), Vec: vecs[idx].Clone(), Visible: true})
		if v.Seq != int64(install)+1 || s.Versions("X")[install] != v {
			t.Fatalf("Seq = %d for install %d, want install order preserved", v.Seq, install+1)
		}
	}
	index := s.visible("X")
	if len(index) != len(vecs) {
		t.Fatalf("index length %d, want %d", len(index), len(vecs))
	}
	for i := 1; i < len(index); i++ {
		if stampCompare(index[i], index[i-1]) < 0 {
			t.Fatalf("index out of version order at %d: %s after %s", i, index[i], index[i-1])
		}
	}
	// The maximum sits at the tail, so the early-exit read returns it
	// without touching the rest.
	if got := s.SnapshotReadVec("X", vclock.Vector{9, 9}); got == nil || got.Vec.Compare(vclock.Vector{5, 1}) != 0 {
		t.Fatalf("snapshot read = %v, want the {5,1} version", got)
	}
}

// TestSnapshotReadVecEarlyExitMatchesFullScan: the early exit must agree
// with the reference full scan on every snapshot, across random install
// orders, visibility, and coverage patterns.
func TestSnapshotReadVecEarlyExitMatchesFullScan(t *testing.T) {
	f := func(raw []uint8, snapA, snapB uint8) bool {
		s := New("X")
		for i, b := range raw {
			s.InstallOrdered(&Version{Object: "X", Value: model.Value(fmt.Sprint(i)),
				Writer:  tid(fmt.Sprintf("c%d", i%3), i),
				Vec:     vclock.Vector{int64(b % 7), int64((b / 7) % 7)},
				Visible: b%5 != 0,
			})
		}
		snap := vclock.Vector{int64(snapA % 8), int64(snapB % 8)}
		got := s.SnapshotReadVec("X", snap)
		want := refSnapshotReadVec(s.Versions("X"), snap)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadVecMixedChainFallback: plain Installs mixed with
// InstallOrdered ones are indexed like any other version; reads still
// return the version-order maximum (vectorless versions rank below every
// vectored one).
func TestSnapshotReadVecMixedChainFallback(t *testing.T) {
	s := New("X")
	s.InstallOrdered(&Version{Object: "X", Value: "v1", Writer: tid("a", 1), Vec: vclock.Vector{2, 2}, Visible: true})
	s.Install(&Version{Object: "X", Value: "bare", Writer: tid("b", 1), Visible: true})
	s.InstallOrdered(&Version{Object: "X", Value: "v2", Writer: tid("c", 1), Vec: vclock.Vector{1, 3}, Visible: true})
	snap := vclock.Vector{3, 3}
	got := s.SnapshotReadVec("X", snap)
	if got == nil || got.Value != "v1" {
		t.Fatalf("mixed-chain read = %v, want the {2,2} version", got)
	}
	// A vectorless-prefix chain (plain init install first, ordered
	// installs after): vectorless versions rank below every vectored one.
	p := New("Y")
	p.Install(&Version{Object: "Y", Value: "init", Writer: tid("in", 1), Visible: true})
	p.InstallOrdered(&Version{Object: "Y", Value: "v", Writer: tid("a", 2), Vec: vclock.Vector{1, 1}, Visible: true})
	if got := p.SnapshotReadVec("Y", vclock.Vector{0, 0}); got == nil || got.Value != "init" {
		t.Fatalf("prefix read = %v, want the vectorless init version", got)
	}
	if got := p.SnapshotReadVec("Y", vclock.Vector{2, 2}); got == nil || got.Value != "v" {
		t.Fatalf("covered read = %v, want the vectored version", got)
	}
}

// TestInstalledCountsDropped: under the Latest horizon a chain holds its
// newest visible version alone, while Seq and Installed go on counting
// every install, the dropped ones too, in the store and in its clone.
func TestInstalledCountsDropped(t *testing.T) {
	s := New("X")
	s.Horizon = Horizon{Latest: true}
	for i := 1; i <= 5; i++ {
		s.Install(&Version{Object: "X", Value: model.Value(fmt.Sprint(i)), Writer: tid("c", i), Visible: true})
	}
	if held := s.Versions("X"); len(held) != 1 || held[0].Seq != 5 || s.Installed("X") != 5 {
		t.Fatalf("the Latest horizon left %v, %d installed; want the 5th alone", held, s.Installed("X"))
	}
	c := s.Clone()
	c.Install(&Version{Object: "X", Value: "6", Writer: tid("c", 6), Visible: true})
	if v := c.LatestVisible("X"); v.Seq != 6 || c.Installed("X") != 6 || s.Installed("X") != 5 {
		t.Fatalf("the clone's next install is Seq %d of %d (the store's %d), want 6 of 6 (5)", v.Seq, c.Installed("X"), s.Installed("X"))
	}
}

// TestReadsBelowHorizonCount: a read whose point lies below the horizon
// counts in Below, one at or above it does not.
func TestReadsBelowHorizonCount(t *testing.T) {
	s := New("X")
	s.Horizon = Horizon{At: vclock.HLCStamp{Wall: 5}}
	s.SnapshotRead("X", vclock.HLCStamp{Wall: 5})
	s.SnapshotRead("X", vclock.HLCStamp{Wall: 9})
	if s.Below != 0 {
		t.Fatalf("reads at and above the horizon counted %d", s.Below)
	}
	s.SnapshotRead("X", vclock.HLCStamp{Wall: 4, Logical: 7})
	v := New("X")
	v.Horizon = Horizon{Vec: vclock.Vector{2, 2}}
	v.SnapshotReadVec("X", vclock.Vector{3, 2})
	v.SnapshotReadVec("X", vclock.Vector{3, 1})
	if s.Below != 1 || v.Below != 1 {
		t.Fatalf("below-horizon reads counted %d and %d, want 1 and 1", s.Below, v.Below)
	}
}
