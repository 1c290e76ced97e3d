package protocol

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// pendingOracle is the map scan Pending replaced: the minimum is a walk
// over every pending stamp.
type pendingOracle map[model.TxnID]int64

func (o pendingOracle) min() (int64, bool) {
	var m int64
	ok := false
	for _, s := range o {
		if !ok || s < m {
			m, ok = s, true
		}
	}
	return m, ok
}

func (o pendingOracle) clone() pendingOracle {
	c := make(pendingOracle, len(o))
	for k, v := range o {
		c[k] = v
	}
	return c
}

// pendingRun drives one Pending and its oracle through the same
// operations, with stamps that only grow as a server's do. A stuck run
// never commits its oldest transaction, so stale places pile up behind
// a live head until Pending compacts them.
type pendingRun struct {
	p      Pending
	o      pendingOracle
	nextTS int64
	nextID int
	stuck  bool
}

// step applies one random operation: a prepare of a new transaction, a
// prepare of a pending one again, a commit of the oldest, of a later or
// of an unknown transaction.
func (r *pendingRun) step(rng *rand.Rand) string {
	r.nextTS += 1 + rng.Int63n(3)
	// pick draws a pending transaction (in a stuck run, not the oldest)
	// from the pending set in stamp order, so the draw is a function of
	// the seed and not of map order.
	pick := func() (model.TxnID, bool) {
		tids := make([]model.TxnID, 0, len(r.o))
		for tid := range r.o {
			tids = append(tids, tid)
		}
		slices.SortFunc(tids, func(a, b model.TxnID) int { return int(r.o[a] - r.o[b]) })
		if r.stuck && len(tids) > 0 {
			tids = tids[1:]
		}
		if len(tids) == 0 {
			return model.TxnID{}, false
		}
		return tids[rng.Intn(len(tids))], true
	}
	switch op := rng.Intn(10); {
	case op < 4:
		r.nextID++
		tid := model.TxnID{Client: "c", Seq: r.nextID}
		r.p.Add(tid, r.nextTS)
		r.o[tid] = r.nextTS
		return "prepare"
	case op == 4:
		if tid, ok := pick(); ok {
			r.p.Add(tid, r.nextTS)
			r.o[tid] = r.nextTS
		}
		return "re-prepare"
	case op == 5:
		tid := model.TxnID{Client: "unknown", Seq: rng.Intn(5)}
		r.p.Remove(tid)
		return "commit unknown"
	case op < 8:
		if m, ok := r.o.min(); ok && !r.stuck {
			for tid, s := range r.o {
				if s == m {
					r.p.Remove(tid)
					delete(r.o, tid)
					break
				}
			}
		}
		return "commit head"
	default:
		if tid, ok := pick(); ok {
			r.p.Remove(tid)
			delete(r.o, tid)
		}
		return "commit any"
	}
}

func (r *pendingRun) check(t *testing.T, seed int64, i int, op, which string) {
	t.Helper()
	got, gok := r.p.Min()
	want, wok := r.o.min()
	if got != want || gok != wok {
		t.Fatalf("seed %d op %d (%s, %s): Min = %d,%v, oracle %d,%v", seed, i, op, which, got, gok, want, wok)
	}
	if len(r.p.stamp) != len(r.o) {
		t.Fatalf("seed %d op %d (%s, %s): %d pending, oracle %d", seed, i, op, which, len(r.p.stamp), len(r.o))
	}
}

// TestPendingMatchesMapScan holds Pending to the map scan it replaced
// under seeded random interleavings of prepares and commits, including
// commits of unknown and of non-head transactions. At a random point
// the run is cloned and both copies go on with different operations:
// each must keep matching its own oracle, so a clone shares nothing.
func TestPendingMatchesMapScan(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := &pendingRun{o: pendingOracle{}, stuck: seed%4 == 0}
		n := 50 + rng.Intn(400)
		fork := rng.Intn(n)
		var b *pendingRun
		for i := 0; i < n; i++ {
			if i == fork {
				b = &pendingRun{p: a.p.Clone(), o: a.o.clone(), nextTS: a.nextTS, nextID: a.nextID, stuck: !a.stuck}
				b.check(t, seed, i, "clone", "b")
			}
			op := a.step(rng)
			a.check(t, seed, i, op, "a")
			if b != nil {
				op := b.step(rng)
				b.check(t, seed, i, op, "b")
			}
		}
	}
}

// TestPendingRefusesStampOutOfOrder: a stamp at or below one still
// queued would break the order Min relies on, so Add refuses it.
func TestPendingRefusesStampOutOfOrder(t *testing.T) {
	var p Pending
	p.Add(model.TxnID{Client: "c", Seq: 1}, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted stamp 5 after 5")
		}
	}()
	p.Add(model.TxnID{Client: "c", Seq: 2}, 5)
}
