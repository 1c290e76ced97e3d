package sim

import (
	"reflect"
	"testing"
)

// shardedPingSetup builds two ping pairs (a↔b, c↔d) in load mode with a
// constant-latency model and a declared floor, partitioned pair-per-shard.
func shardedPingSetup(t *testing.T, count int, workers int) (*Kernel, *ShardedRunner, *pinger, *pinger) {
	t.Helper()
	k := NewKernel(1, ConstantLatency(50))
	k.SetLatencyFloor(50)
	k.SetTraceCap(-1)
	a := &pinger{id: "a", peer: "b", count: count}
	b := &pinger{id: "b", peer: "a", echo: true}
	c := &pinger{id: "c", peer: "d", count: count}
	d := &pinger{id: "d", peer: "c", echo: true}
	for _, p := range []*pinger{a, b, c, d} {
		k.Add(p)
	}
	shardOf := func(pid ProcessID) int {
		if pid == "a" || pid == "b" {
			return 0
		}
		return 1
	}
	r, err := NewLookaheadRunner(k, shardOf, 2, workers)
	if err != nil {
		t.Fatal(err)
	}
	return k, r, a, c
}

// TestShardedRunnerDrains: the runner drives both shards to quiescence,
// every ping is answered, deliveries are never early, and the kernel is
// quiescent afterwards.
func TestShardedRunnerDrains(t *testing.T) {
	t.Run("lookahead", func(t *testing.T) {
		k, r, a, c := shardedPingSetup(t, 5, 2)
		n := r.Run(nil, 100_000)
		if n == 0 {
			t.Fatal("no events executed")
		}
		if a.pongs != 5 || c.pongs != 5 {
			t.Fatalf("pongs = %d, %d, want 5, 5", a.pongs, c.pongs)
		}
		if !k.Quiescent() {
			t.Fatal("kernel not quiescent after drain")
		}
		st := r.Stats()
		if st.Events != n || st.Rounds == 0 || st.CriticalEvents > st.Events {
			t.Fatalf("inconsistent stats: %+v (n=%d)", st, n)
		}
	})
}

// TestShardedRunnerWorkerIndependence: every observable — event count,
// final clock, process state, stats, message IDs
// — matches across worker counts, the serial-equals-parallel invariant at
// the sim layer.
func TestShardedRunnerWorkerIndependence(t *testing.T) {
	type outcome struct {
		n      int
		now    Time
		pongsA int
		pongsC int
		nextID int64
		stats  ShardingStats
	}
	t.Run("lookahead", func(t *testing.T) {
		run := func(workers int) outcome {
			k, r, a, c := shardedPingSetup(t, 7, workers)
			n := r.Run(nil, 100_000)
			return outcome{n: n, now: k.Now(), pongsA: a.pongs, pongsC: c.pongs, nextID: k.nextID, stats: r.Stats()}
		}
		want := run(1)
		for _, w := range []int{2, 4, 8} {
			if got := run(w); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d diverged: %+v vs %+v", w, got, want)
			}
		}
	})
}

// crossShardPing builds a pinger in shard 0 bursting count pings at an
// echo in shard 1, with latency sampled from [lo, hi] and the global
// floor declared at floor — arrivals spread over far more than one floor
// window, the shape where per-link bounds cover several at once.
func crossShardPing(t *testing.T, count int, lo, hi, floor Time) (*Kernel, *ShardedRunner, *pinger) {
	t.Helper()
	k := NewKernel(11, UniformLatency(lo, hi))
	k.SetLatencyFloor(floor)
	k.SetTraceCap(-1)
	a := &pinger{id: "a", peer: "b", count: count}
	b := &pinger{id: "b", peer: "a", echo: true}
	k.Add(a)
	k.Add(b)
	shardOf := func(pid ProcessID) int {
		if pid == "a" {
			return 0
		}
		return 1
	}
	r, err := NewLookaheadRunner(k, shardOf, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return k, r, a
}

// TestLookaheadRoundsPinned: with arrivals spread over five floor widths,
// the bounds — fed by the idle peer shard's far-future promise — cover
// several floor-wide windows at once (NullAdvances > 0). The round count
// is pinned so a regression in the bound computation fails here.
func TestLookaheadRoundsPinned(t *testing.T) {
	_, r, a := crossShardPing(t, 9, 50, 300, 50)
	r.Run(nil, 100_000)
	if a.pongs != 9 {
		t.Fatalf("pongs = %d, want 9", a.pongs)
	}
	if st := r.Stats(); st.Events != 45 || st.Rounds != 6 || st.NullAdvances != 6 {
		t.Fatalf("events/rounds/null advances = %d/%d/%d, want 45/6/6", st.Events, st.Rounds, st.NullAdvances)
	}
}

// TestLookaheadPerLinkFloors: declaring the true 300µs link floor on the
// cross-shard links (the global declaration understates it at 50µs)
// widens the advancement bounds sixfold and must drain the same run in
// fewer rounds.
func TestLookaheadPerLinkFloors(t *testing.T) {
	_, narrow, _ := crossShardPing(t, 9, 300, 600, 50)
	narrow.Run(nil, 100_000)
	k2 := NewKernel(11, UniformLatency(300, 600))
	k2.SetLatencyFloor(50)
	k2.SetTraceCap(-1)
	a := &pinger{id: "a", peer: "b", count: 9}
	k2.Add(a)
	k2.Add(&pinger{id: "b", peer: "a", echo: true})
	k2.SetLinkLatencyFloor(Link{From: "a", To: "b"}, 300)
	k2.SetLinkLatencyFloor(Link{From: "b", To: "a"}, 300)
	wide, err := NewLookaheadRunner(k2, func(pid ProcessID) int {
		if pid == "a" {
			return 0
		}
		return 1
	}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wide.Run(nil, 100_000)
	n, w := narrow.Stats(), wide.Stats()
	if a.pongs != 9 {
		t.Fatalf("pongs = %d, want 9", a.pongs)
	}
	if w.Events != n.Events {
		t.Fatalf("event counts diverged: %d vs %d", w.Events, n.Events)
	}
	if w.Rounds >= n.Rounds {
		t.Fatalf("per-link floors did not reduce rounds: %d (declared) vs %d (global only)", w.Rounds, n.Rounds)
	}
}

// TestShardedRunnerHorizon: no round starts at or past the horizon;
// work due later stays unexecuted until the horizon is lifted — the
// contract the open-loop driver injects arrivals by. (The bound has
// window granularity: a chain straddling the horizon may push the clock
// a few steps past it — see SetHorizon — but nothing here is due before
// it, so the clock must stay strictly below.)
func TestShardedRunnerHorizon(t *testing.T) {
	t.Run("lookahead", func(t *testing.T) {
		k, r, a, _ := shardedPingSetup(t, 3, 2)
		r.SetHorizon(30) // before the first 50µs delivery can land
		n := r.Run(nil, 100_000)
		if k.Now() >= 30 {
			t.Fatalf("clock %d reached the horizon", k.Now())
		}
		if a.pongs != 0 {
			t.Fatalf("pongs %d arrived before the horizon allowed", a.pongs)
		}
		r.SetHorizon(0)
		n += r.Run(nil, 100_000)
		if a.pongs != 3 {
			t.Fatalf("pongs = %d after lifting the horizon, want 3", a.pongs)
		}
		if n == 0 || !k.Quiescent() {
			t.Fatalf("n=%d quiescent=%v", n, k.Quiescent())
		}
	})
}

// TestShardedRunnerBudgetLeftovers: an event budget that lands inside a
// round leaves the kernel coherent — undelivered messages back in
// transit, unconsumed income buffers visible — and a later Run resumes
// without losing anything.
func TestShardedRunnerBudgetLeftovers(t *testing.T) {
	t.Run("lookahead", func(t *testing.T) {
		k, r, a, c := shardedPingSetup(t, 6, 2)
		total := 0
		for i := 0; i < 1000 && !k.Quiescent(); i++ {
			total += r.Run(nil, 3) // tiny budgets force mid-round cuts
		}
		if a.pongs != 6 || c.pongs != 6 {
			t.Fatalf("pongs = %d, %d after resumed runs, want 6, 6", a.pongs, c.pongs)
		}
		// The chopped-up run must execute the same events as an
		// uninterrupted one (round boundaries differ, but nothing may be
		// lost): compare against a fresh uninterrupted drain.
		k2, r2, a2, c2 := shardedPingSetup(t, 6, 2)
		n2 := r2.Run(nil, 100_000)
		if a2.pongs != 6 || c2.pongs != 6 {
			t.Fatalf("control run pongs = %d, %d", a2.pongs, c2.pongs)
		}
		if total != n2 {
			t.Logf("note: chopped run executed %d events vs %d uninterrupted (both drained)", total, n2)
		}
		if !k2.Quiescent() || !k.Quiescent() {
			t.Fatal("kernels not quiescent")
		}
	})
}

// TestLookaheadRunHandsArrivalsBack: between Runs the kernel's own
// arrival index must be whole again — a serial scheduler taking over
// right after a budget-exhausted lookahead Run sees every in-transit
// message.
func TestLookaheadRunHandsArrivalsBack(t *testing.T) {
	k, r, a, c := shardedPingSetup(t, 4, 2)
	r.Run(nil, 3) // stops with messages parked mid-flight
	if len(k.InTransit()) > 0 && k.EarliestArrival() == nil {
		t.Fatal("in-transit messages invisible to the kernel arrival index between Runs")
	}
	// The serial scheduler can finish the run from here.
	Drain(k, 100_000)
	if a.pongs != 4 || c.pongs != 4 {
		t.Fatalf("pongs = %d, %d after serial handover, want 4, 4", a.pongs, c.pongs)
	}
	if !k.Quiescent() {
		t.Fatal("kernel not quiescent")
	}
}

// TestShardedRunnerRefusesTracing: full traces only exist for the serial
// schedulers; the runner must refuse a kernel still recording events.
func TestShardedRunnerRefusesTracing(t *testing.T) {
	k := NewKernel(1, nil)
	k.Add(&pinger{id: "a", peer: "a", count: 0})
	if _, err := NewLookaheadRunner(k, func(ProcessID) int { return 0 }, 1, 2); err == nil {
		t.Fatal("runner accepted a tracing kernel")
	}
	k.SetTraceCap(-1)
	if _, err := NewLookaheadRunner(k, func(ProcessID) int { return 1 }, 1, 2); err == nil {
		t.Fatal("runner accepted an out-of-range shard assignment")
	}
	if _, err := NewLookaheadRunner(k, func(ProcessID) int { return 0 }, 1, 2); err != nil {
		t.Fatalf("valid runner refused: %v", err)
	}
}

// timingCheck wraps a pinger and verifies, from inside Step, that every
// consumed message respects the model: delivery never before ReadyAt,
// step time never before delivery.
type timingCheck struct {
	pinger
	bad int // per-process, so parallel shards never share the counter
}

func (p *timingCheck) Step(now Time, inbox []*Message) []Outbound {
	for _, m := range inbox {
		if m.DeliveredAt < m.ReadyAt || now < m.DeliveredAt || m.ReadyAt < m.SentAt {
			p.bad++
		}
	}
	return p.pinger.Step(now, inbox)
}

func (p *timingCheck) Clone() Process { c := *p; return &c }

// TestShardedDeliveriesNeverEarly: DeliveredAt ≥ ReadyAt for every
// message a sharded run delivers — late deliveries are the adversary's
// right, early ones would break the model. Checked from inside every
// process step across three shards.
func TestShardedDeliveriesNeverEarly(t *testing.T) {
	t.Run("lookahead", func(t *testing.T) {
		k := NewKernel(3, UniformLatency(20, 120))
		k.SetLatencyFloor(20)
		k.SetTraceCap(-1)
		var all []*timingCheck
		for i := 0; i < 6; i += 2 {
			a := &timingCheck{pinger: pinger{id: ProcessID(rune('a' + i)), peer: ProcessID(rune('a' + i + 1)), count: 4}}
			b := &timingCheck{pinger: pinger{id: ProcessID(rune('a' + i + 1)), peer: ProcessID(rune('a' + i)), echo: true}}
			k.Add(a)
			k.Add(b)
			all = append(all, a, b)
		}
		shardOf := func(pid ProcessID) int { return (int(pid[0]) - 'a') / 2 }
		r, err := NewLookaheadRunner(k, shardOf, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		r.Run(nil, 100_000)
		if !k.Quiescent() {
			t.Fatal("not quiescent")
		}
		for _, p := range all {
			if p.bad != 0 {
				t.Fatalf("%s: %d messages violated delivery timing", p.id, p.bad)
			}
			if !p.echo && p.pongs != 4 {
				t.Fatalf("%s pongs = %d, want 4", p.id, p.pongs)
			}
		}
	})
}

// TestFloorBoundsEveryLaterStep: Floor, read between rounds, is a lower
// bound on every step that follows it — also across a crash and restart
// between Runs, which releases held messages onto a shard whose clock has
// fallen behind the rest of the system — and it does advance.
func TestFloorBoundsEveryLaterStep(t *testing.T) {
	k, r, a := crossShardPing(t, 40, 100, 900, 100)
	floor := Time(0)
	pids := []ProcessID{"a", "b"}
	r.SetRefill(pids, func(i int, at Time) {
		if pid := pids[i]; at <= floor {
			t.Errorf("%s stepped at %d, not after the floor %d read before it", pid, at, floor)
		}
	})
	stop := func(*Kernel) bool {
		if f := r.Floor(); f < floor {
			t.Errorf("floor went back from %d to %d", floor, f)
		} else {
			floor = f
		}
		return false
	}
	r.SetHorizon(400)
	r.Run(stop, 100_000)
	k.crash("b", false)
	r.SetHorizon(0)
	r.Run(stop, 100_000) // everything addressed to b is held: a's shard runs on alone
	k.AdvanceTo(k.Now() + 5_000)
	k.restart("b")
	r.Run(stop, 100_000)
	if a.pongs != 40 {
		t.Fatalf("pongs = %d, want 40", a.pongs)
	}
	if floor == 0 {
		t.Fatal("floor never advanced")
	}
}
