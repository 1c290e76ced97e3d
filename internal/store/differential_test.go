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
	var max vclock.HLCStamp
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
		if want != nil && max.Before(want.Stamp) {
			max = want.Stamp
		}
	}
	if got := s.MaxVisibleStamp(); got != max {
		t.Fatalf("%s: MaxVisibleStamp = %s, scan says %s", what, got, max)
	}
}

// TestIndexesMatchFullScans drives seeded random sequences of every store
// mutation — prepared and visible installs, stamped and vectored, commits
// by writer with out-of-order and equal stamps, restamps, single-version
// publication and clones — over 3 objects × ≤ 200 versions, and after
// each step holds every indexed read to the naive full scan.
func TestIndexesMatchFullScans(t *testing.T) {
	objs := []string{"A", "B", "C"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(objs...)
		var writers, pending []model.TxnID
		stamp := func() vclock.HLCStamp { return vclock.HLCStamp{Wall: rng.Int63n(9), Logical: rng.Int63n(2)} }
		vec := func() vclock.Vector { return vclock.Vector{rng.Int63n(6), rng.Int63n(6)} }
		anyVersion := func() *Version {
			if chain := s.Versions(objs[rng.Intn(3)]); len(chain) > 0 {
				return chain[rng.Intn(len(chain))]
			}
			return nil
		}
		// mutate applies one random operation to s.
		installs := 0
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
					nv := v
					nv.Object = o
					if ordered {
						nv.Vec = v.Vec.Clone()
						s.InstallOrdered(&nv)
					} else {
						s.Install(&nv)
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
				switch rng.Intn(3) {
				case 0:
					s.Commit(w)
				case 1:
					s.CommitAt(w, stamp())
				default:
					s.CommitVec(w, vec())
				}
				return "commit"
			case op < 8:
				if v := anyVersion(); v != nil {
					if got := s.Restamp(v.Object, v.Writer, vec()); got != v {
						t.Fatalf("seed %d: Restamp returned %v, want %v", seed, got, v)
					}
				}
				return "restamp"
			default:
				if v := anyVersion(); v != nil && !s.MakeVisible(v.Object, v.Writer) {
					t.Fatalf("seed %d: MakeVisible lost %v", seed, v)
				}
				return "make-visible"
			}
		}
		for step := 1; step <= 260; step++ {
			what := fmt.Sprintf("seed %d step %d %s", seed, step, mutate())
			checkAgainstScans(t, what, s, writers)
			if step%37 == 0 {
				// A clone answers like its source, and keeps doing so
				// while the source moves on: it shares no index slice.
				c := s.Clone()
				checkAgainstScans(t, what+" clone", c, writers)
				for i := 0; i < 12; i++ {
					mutate()
				}
				checkAgainstScans(t, what+" clone after source moved", c, writers)
				checkAgainstScans(t, what+" source after clone", s, writers)
				if rng.Intn(2) == 0 {
					s, pending = c, nil // carry on from the clone
				}
			}
		}
	}
}
