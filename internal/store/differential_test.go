package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/vclock"
)

// The reference answers: full scans of the install-order chain under an
// independently written version order. The store answers the same
// questions from its indexes.

func refLess(a, b *Version) bool {
	if a.Stamp != b.Stamp {
		return a.Stamp.Before(b.Stamp)
	}
	switch {
	case a.Vec == nil && b.Vec == nil:
	case a.Vec == nil || b.Vec == nil:
		return a.Vec == nil
	case a.Vec.Compare(b.Vec) != 0:
		return a.Vec.Compare(b.Vec) < 0
	}
	return a.Writer.String() < b.Writer.String()
}

// refMax scans the whole chain for the largest visible version covered by
// the snapshot predicate.
func refMax(chain []*Version, covered func(*Version) bool) *Version {
	var best *Version
	for _, v := range chain {
		if v.Visible && covered(v) && (best == nil || refLess(best, v)) {
			best = v
		}
	}
	return best
}

func refFind(chain []*Version, w model.TxnID) *Version {
	for _, v := range chain {
		if v.Writer == w {
			return v
		}
	}
	return nil
}

func refSnapshotReadVec(chain []*Version, snap vclock.Vector) *Version {
	return refMax(chain, func(v *Version) bool { return v.Vec == nil || v.Vec.LessEq(snap) })
}

// checkAgainstScans compares every indexed answer of s with the full scan.
func checkAgainstScans(t *testing.T, what string, s *Store, writers []model.TxnID) {
	t.Helper()
	for _, obj := range s.Objects() {
		chain := s.Versions(obj)
		for _, w := range writers {
			if got, want := s.Find(obj, w), refFind(chain, w); got != want {
				t.Fatalf("%s: Find(%s, %s) = %v, scan says %v", what, obj, w, got, want)
			}
		}
		for wall := int64(-1); wall <= 9; wall++ {
			for logical := int64(0); logical <= 1; logical++ {
				at := vclock.HLCStamp{Wall: wall, Logical: logical}
				want := refMax(chain, func(v *Version) bool { return !at.Before(v.Stamp) })
				if got := s.SnapshotRead(obj, at); got != want {
					t.Fatalf("%s: SnapshotRead(%s, %s) = %v, scan says %v", what, obj, at, got, want)
				}
			}
		}
		for a := int64(0); a <= 5; a++ {
			for b := int64(0); b <= 5; b++ {
				snap := vclock.Vector{a, b}
				if got, want := s.SnapshotReadVec(obj, snap), refSnapshotReadVec(chain, snap); got != want {
					t.Fatalf("%s: SnapshotReadVec(%s, %s) = %v, scan says %v", what, obj, snap, got, want)
				}
			}
		}
		want := refMax(chain, func(*Version) bool { return true })
		if got := s.LatestVisibleByStamp(obj); got != want {
			t.Fatalf("%s: LatestVisibleByStamp(%s) = %v, scan says %v", what, obj, got, want)
		}
	}
}

// checkAboveHorizon holds s, pruned to its horizon, to the full scans of
// full, its unpruned twin: every read at or above the horizon returns the
// version the twin's scan finds, Seq included, Find finds exactly the
// writers s still holds, and no read counts as below the horizon.
func checkAboveHorizon(t *testing.T, what string, s, full *Store, writers []model.TxnID) {
	t.Helper()
	same := func(read string, got, want *Version) {
		t.Helper()
		if (got == nil) != (want == nil) || got != nil && (got.Writer != want.Writer || got.Seq != want.Seq) {
			t.Fatalf("%s: %s = %v, the unpruned twin's scan says %v", what, read, got, want)
		}
	}
	h := s.Horizon
	for _, obj := range s.Objects() {
		chain, twin := s.Versions(obj), full.Versions(obj)
		for _, w := range writers {
			if got, held := s.Find(obj, w), refFind(chain, w); got != held {
				t.Fatalf("%s: Find(%s, %s) = %v, the chain holds %v", what, obj, w, got, held)
			} else if held != nil {
				same("Find("+obj+", "+w.String()+")", held, refFind(twin, w))
			}
		}
		switch {
		case h.Latest:
			same("LatestVisible("+obj+")", s.LatestVisible(obj), full.Latest(obj, func(v *Version) bool { return v.Visible }))
			continue
		case h.Vec != nil:
			for a := h.Vec[0]; a <= 5; a++ {
				for b := h.Vec[1]; b <= 5; b++ {
					snap := vclock.Vector{a, b}
					same(fmt.Sprintf("SnapshotReadVec(%s, %s)", obj, snap), s.SnapshotReadVec(obj, snap), refSnapshotReadVec(twin, snap))
				}
			}
		default:
			for wall := h.At.Wall; wall <= 9; wall++ {
				for logical := int64(0); logical <= 1; logical++ {
					if at := (vclock.HLCStamp{Wall: wall, Logical: logical}); !at.Before(h.At) {
						want := refMax(twin, func(v *Version) bool { return !at.Before(v.Stamp) })
						same(fmt.Sprintf("SnapshotRead(%s, %s)", obj, at), s.SnapshotRead(obj, at), want)
					}
				}
			}
		}
		same("LatestVisibleByStamp("+obj+")", s.LatestVisibleByStamp(obj), refMax(twin, func(*Version) bool { return true }))
	}
	if s.Below != 0 {
		t.Fatalf("%s: %d reads at or above the horizon counted as below it", what, s.Below)
	}
}

// TestIndexesMatchFullScans drives seeded random sequences of every store
// mutation — prepared and visible installs, stamped and vectored, commits
// by writer with out-of-order and equal stamps, restamps and clones —
// over 3 objects × ≤ 200 versions, and after each step holds every
// indexed read to the naive full scan. Then it raises a horizon (Latest,
// a stamp or a vector, by seed) step by step and holds the pruned store
// to its unpruned twin, which took every mutation too.
func TestIndexesMatchFullScans(t *testing.T) {
	objs := []string{"A", "B", "C"}
	pruned := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, full := New(objs...), New(objs...)
		var writers, pending []model.TxnID
		stamp := func() vclock.HLCStamp { return vclock.HLCStamp{Wall: rng.Int63n(9), Logical: rng.Int63n(2)} }
		vec := func() vclock.Vector { return vclock.Vector{rng.Int63n(6), rng.Int63n(6)} }
		anyVersion := func() *Version {
			if chain := s.Versions(objs[rng.Intn(3)]); len(chain) > 0 {
				return chain[rng.Intn(len(chain))]
			}
			return nil
		}
		// mutate applies one random operation to s and full.
		installs, pruning := 0, false
		mutate := func() string {
			switch op := rng.Intn(10); {
			case op < 4 && len(s.Versions("A")) < 200: // a writer touches 1–3 objects
				installs++
				w := model.TxnID{Client: fmt.Sprintf("c%d", rng.Intn(4)), Seq: installs}
				writers = append(writers, w)
				v := Version{Writer: w, Visible: rng.Intn(3) == 0}
				ordered := rng.Intn(2) == 0
				if ordered {
					v.Vec = vec()
				} else {
					v.Stamp = stamp()
				}
				for _, o := range objs[:1+rng.Intn(3)] {
					for _, st := range []*Store{s, full} {
						nv := v
						nv.Object = o
						if ordered {
							nv.Vec = v.Vec.Clone()
							st.InstallOrdered(&nv)
						} else {
							st.Install(&nv)
						}
					}
				}
				if !v.Visible {
					pending = append(pending, w)
				}
				return "install"
			case op < 7 && len(pending) > 0:
				i := rng.Intn(len(pending))
				w := pending[i]
				pending = append(pending[:i], pending[i+1:]...)
				switch at, vc := stamp(), vec(); rng.Intn(3) {
				case 0:
					s.Commit(w)
					full.Commit(w)
				case 1:
					s.CommitAt(w, at)
					full.CommitAt(w, at)
				default:
					s.CommitVec(w, vc)
					full.CommitVec(w, vc.Clone())
				}
				return "commit"
			case pruning:
				// A restamp may move a version below ones the horizon
				// dropped; no model that prunes restamps.
				return "no restamp"
			default:
				if v := anyVersion(); v != nil {
					vc := vec()
					if got := s.Restamp(v.Object, v.Writer, vc); got != v {
						t.Fatalf("seed %d: Restamp returned %v, want %v", seed, got, v)
					}
					full.Restamp(v.Object, v.Writer, vc.Clone())
				}
				return "restamp"
			}
		}
		for step := 1; step <= 260; step++ {
			what := fmt.Sprintf("seed %d step %d %s", seed, step, mutate())
			checkAgainstScans(t, what, s, writers)
			if step%37 == 0 {
				// A clone answers like its source, and keeps doing so
				// while the source moves on: it shares no index slice.
				c, fc := s.Clone(), full.Clone()
				checkAgainstScans(t, what+" clone", c, writers)
				for i := 0; i < 12; i++ {
					mutate()
				}
				checkAgainstScans(t, what+" clone after source moved", c, writers)
				checkAgainstScans(t, what+" source after clone", s, writers)
				if rng.Intn(2) == 0 {
					s, full, pending = c, fc, nil // carry on from the clones
				}
			}
		}
		// The horizon only rises, as a deployment's does.
		pruning = true
		h := Horizon{Latest: seed%3 == 0}
		if seed%3 == 2 {
			h.Vec = vclock.Vector{0, 0}
		}
		for step := 1; step <= 200; step++ {
			if step%20 == 1 {
				if h.Vec != nil {
					h.Vec = vclock.Vector{min(h.Vec[0]+rng.Int63n(2), 5), min(h.Vec[1]+rng.Int63n(2), 5)}
				} else if at := (vclock.HLCStamp{Wall: min(h.At.Wall+rng.Int63n(3), 8), Logical: rng.Int63n(2)}); !h.Latest && h.At.Before(at) {
					h.At = at
				}
				s.Horizon = h
			}
			what := fmt.Sprintf("seed %d horizon %+v step %d %s", seed, h, step, mutate())
			checkAboveHorizon(t, what, s, full, writers)
			if step%37 == 0 {
				checkAboveHorizon(t, what+" clone", s.Clone(), full, writers)
			}
		}
		for _, o := range objs {
			pruned += len(full.Versions(o)) - len(s.Versions(o))
		}
	}
	if pruned == 0 {
		t.Fatal("no horizon dropped a version")
	}
	t.Logf("the horizons dropped %d versions", pruned)
}
