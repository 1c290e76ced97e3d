package protocol

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/vclock"
)

// pendingOracle is the map scan Pending replaced: the minimum is a walk
// over every pending stamp.
type pendingOracle[S comparable] map[model.TxnID]S

func pendingMin[S comparable, O Order[S]](o pendingOracle[S]) (S, bool) {
	var order O
	var m S
	ok := false
	for _, s := range o {
		if !ok || order.Less(s, m) {
			m, ok = s, true
		}
	}
	return m, ok
}

// pendingClock issues the stamps of one run, each above the last: a
// counter (cure, spanner, eiger) or a hybrid clock (wren), whose wall
// time sometimes stands still while its logical part grows.
type pendingClock[S comparable] interface {
	tick(rng *rand.Rand) S
	fork() pendingClock[S] // a copy that goes on from here on its own
}

type counterClock struct{ ts int64 }

func (c *counterClock) tick(rng *rand.Rand) int64 { c.ts += 1 + rng.Int63n(3); return c.ts }
func (c *counterClock) fork() pendingClock[int64] { f := *c; return &f }

type hlcClock struct {
	h    vclock.HLC
	phys int64
}

func (c *hlcClock) tick(rng *rand.Rand) vclock.HLCStamp {
	c.phys += rng.Int63n(3)
	return c.h.Now(c.phys)
}
func (c *hlcClock) fork() pendingClock[vclock.HLCStamp] { f := *c; return &f }

// pendingRun drives one Pending and its oracle through the same
// operations, with stamps that only grow as a server's do. A stuck run
// never commits its oldest transaction, so stale places pile up behind
// a live head until Pending compacts them.
type pendingRun[S comparable, O Order[S]] struct {
	p      Pending[S, O]
	o      pendingOracle[S]
	clock  pendingClock[S]
	nextID int
	stuck  bool
}

// step applies one random operation: a prepare of a new transaction, a
// prepare of a pending one again, a commit of the oldest, of a later or
// of an unknown transaction.
func (r *pendingRun[S, O]) step(rng *rand.Rand) string {
	ts := r.clock.tick(rng)
	// pick draws a pending transaction (in a stuck run, not the oldest)
	// from the pending set in stamp order, so the draw is a function of
	// the seed and not of map order.
	var order O
	pick := func() (model.TxnID, bool) {
		tids := make([]model.TxnID, 0, len(r.o))
		for tid := range r.o {
			tids = append(tids, tid)
		}
		slices.SortFunc(tids, func(a, b model.TxnID) int {
			if order.Less(r.o[a], r.o[b]) {
				return -1
			}
			return 1 // stamps are distinct
		})
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
		r.p.Add(tid, ts)
		r.o[tid] = ts
		return "prepare"
	case op == 4:
		if tid, ok := pick(); ok {
			r.p.Add(tid, ts)
			r.o[tid] = ts
		}
		return "re-prepare"
	case op == 5:
		tid := model.TxnID{Client: "unknown", Seq: rng.Intn(5)}
		r.p.Remove(tid)
		return "commit unknown"
	case op < 8:
		if m, ok := pendingMin[S, O](r.o); ok && !r.stuck {
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

func (r *pendingRun[S, O]) check(t *testing.T, seed int64, i int, op, which string) {
	t.Helper()
	got, gok := r.p.Min()
	want, wok := pendingMin[S, O](r.o)
	if got != want || gok != wok {
		t.Fatalf("seed %d op %d (%s, %s): Min = %v,%v, oracle %v,%v", seed, i, op, which, got, gok, want, wok)
	}
	if len(r.p.stamp) != len(r.o) {
		t.Fatalf("seed %d op %d (%s, %s): %d pending, oracle %d", seed, i, op, which, len(r.p.stamp), len(r.o))
	}
}

// TestPendingMatchesMapScan holds Pending to the map scan it replaced
// under seeded random interleavings of prepares and commits, including
// commits of unknown and of non-head transactions, on counter stamps and
// on hybrid clock stamps (wren's). At a random point the run is cloned
// and both copies go on with different operations: each must keep
// matching its own oracle, so a clone shares nothing.
func TestPendingMatchesMapScan(t *testing.T) {
	t.Run("counter", func(t *testing.T) {
		pendingMatchesMapScan[int64, Counters](t, func() pendingClock[int64] { return &counterClock{} })
	})
	t.Run("hlc", func(t *testing.T) {
		pendingMatchesMapScan[vclock.HLCStamp, HLCs](t, func() pendingClock[vclock.HLCStamp] { return &hlcClock{} })
	})
}

func pendingMatchesMapScan[S comparable, O Order[S]](t *testing.T, newClock func() pendingClock[S]) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := &pendingRun[S, O]{o: pendingOracle[S]{}, clock: newClock(), stuck: seed%4 == 0}
		n := 50 + rng.Intn(400)
		fork := rng.Intn(n)
		var b *pendingRun[S, O]
		for i := 0; i < n; i++ {
			if i == fork {
				b = &pendingRun[S, O]{p: a.p.Clone(), o: maps.Clone(a.o), clock: a.clock.fork(), nextID: a.nextID, stuck: !a.stuck}
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
	var p Pending[int64, Counters]
	p.Add(model.TxnID{Client: "c", Seq: 1}, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted stamp 5 after 5")
		}
	}()
	p.Add(model.TxnID{Client: "c", Seq: 2}, 5)
}
