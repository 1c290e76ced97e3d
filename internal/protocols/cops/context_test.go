package cops

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestContextMatchesReference drives random observe / write-ack /
// snapshot / clone sequences against a map per context. Every live
// context must read as its map after every step, every snapshot as its
// map when taken, and a clone and its source must diverge independently:
// a leaf shared by a snapshot, a clone or both is never written.
func TestContextMatchesReference(t *testing.T) {
	const objects = 3*leafSize + 5 // a partial last leaf
	type snap struct {
		d   deps
		ref map[int]int64
	}
	check := func(run, step int, what string, d deps, ref map[int]int64) {
		t.Helper()
		for i := range objects + leafSize {
			if got := d.seq(i); got != ref[i] {
				t.Fatalf("run %d step %d: %s entry %d = %d, want %d", run, step, what, i, got, ref[i])
			}
		}
	}
	for run := range 12 {
		rng := rand.New(rand.NewPCG(uint64(run), 33))
		ctxs := []*causalContext{{}}
		refs := []map[int]int64{{}}
		var snaps []snap
		for step := range 250 {
			k := rng.IntN(len(ctxs))
			c, ref := ctxs[k], refs[k]
			i, seq := rng.IntN(objects), rng.Int64N(50)+1
			switch op := rng.IntN(10); {
			case op < 4:
				c.observe(i, seq)
				ref[i] = max(ref[i], seq)
			case op < 7:
				c.set(i, seq)
				ref[i] = seq
			case op < 9:
				snaps = append(snaps, snap{c.snapshot(), maps.Clone(ref)})
			default:
				cp := c.clone()
				ctxs, refs = append(ctxs, &cp), append(refs, maps.Clone(ref))
			}
			for k, c := range ctxs {
				check(run, step, "context", c.vec, refs[k])
			}
			for _, s := range snaps {
				check(run, step, "snapshot", s.d, s.ref)
			}
		}
	}
}

// TestCloneLeavesSourceUntouched: cloning writes nothing into the
// source, so a source whose leaves are all owned keeps them, and the
// clone owns copies.
func TestCloneLeavesSourceUntouched(t *testing.T) {
	var c causalContext
	c.set(3, 7)
	c.set(leafSize+1, 9)
	before := slices.Clone(c.vec)
	cp := c.clone()
	cp.set(3, 8)
	for l, p := range c.vec {
		if p != before[l] || !c.owned[l] {
			t.Fatalf("leaf %d: source changed by clone", l)
		}
		if cp.vec[l] == p {
			t.Fatalf("leaf %d: clone shares a leaf the source owns", l)
		}
	}
	if c.vec.seq(3) != 7 || cp.vec.seq(3) != 8 || cp.vec.seq(leafSize+1) != 9 {
		t.Fatalf("source %#v, clone %#v", c.vec, cp.vec)
	}
}
