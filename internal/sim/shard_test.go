package sim

import (
	"fmt"
	"reflect"
	"slices"
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

// pingRunner is a ping pair a↔b that sends count pings, one process per
// shard, under a lookahead runner on one worker.
func pingRunner(t *testing.T, count int) (*Kernel, *ShardedRunner, *pinger) {
	t.Helper()
	k, a, _ := newPingPair(3, count)
	k.SetTraceCap(-1)
	r, err := NewLookaheadRunner(k, func(pid ProcessID) int {
		if pid == "a" {
			return 0
		}
		return 1
	}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return k, r, a
}

// TestRunRefreshesReadiness: the runner caches each process's readiness
// and refreshes an entry only when that process steps, so what changes a
// process between Runs — an invocation named by NotifyInvoked, a fault —
// must be picked up when the next Run starts, and a refill hook's re-arm
// right after the step it follows.
func TestRunRefreshesReadiness(t *testing.T) {
	t.Run("invoke between runs", func(t *testing.T) {
		// What the open-loop driver does: invoke, NotifyInvoked, Run.
		k, r, a := pingRunner(t, 1)
		r.Run(nil, 10_000)
		if a.pongs != 1 || a.Ready() {
			t.Fatalf("first run: %d pongs, ready %v; want 1, false", a.pongs, a.Ready())
		}
		a.count = 3
		r.NotifyInvoked("a", k.Now())
		r.Run(nil, 10_000)
		if a.pongs != 3 {
			t.Fatalf("pongs after re-arming between runs = %d, want 3", a.pongs)
		}
	})
	t.Run("crash then restart", func(t *testing.T) {
		k, r, a := pingRunner(t, 3)
		r.Run(nil, 1) // budget cut: a has sent one ping and is still Ready
		if a.sent != 1 || !a.Ready() {
			t.Fatalf("budget-cut run: %d sent, ready %v; want 1, true", a.sent, a.Ready())
		}
		k.ApplyFault(Fault{At: k.Now(), Kind: FaultCrash, Proc: "a"})
		r.Run(nil, 10_000)
		if a.sent != 1 {
			t.Fatalf("a stepped while down: %d sent, want 1", a.sent)
		}
		k.ApplyFault(Fault{At: k.Now(), Kind: FaultRestart, Proc: "a"})
		r.Run(nil, 10_000)
		if a.pongs != 3 {
			t.Fatalf("pongs after restart = %d, want 3", a.pongs)
		}
		mustConserve(t, k)
	})
	t.Run("refill re-arms mid-window", func(t *testing.T) {
		_, r, a := pingRunner(t, 1)
		// Like the closed-loop driver: the next invocation once the last
		// one is answered, from inside the window.
		r.SetRefill([]ProcessID{"a"}, func(int, Time) {
			if a.pongs == a.count && a.count < 4 {
				a.count++
			}
		})
		r.Run(nil, 10_000)
		if a.pongs != 4 {
			t.Fatalf("pongs with a re-arming refill hook = %d, want 4", a.pongs)
		}
	})
}

// dijkstraBounds is the bound rule the closed form replaced, kept as its
// reference: the promise fixpoint P_i = min(e_i, min_{j≠i}(P_j +
// f[j][i])) over the direct floors f, solved by one Dijkstra pass, then
// bound_i = min_{j≠i}(P_j + f[j][i]), capped at infTime.
func dijkstraBounds(f [][]Time, e []Time) []Time {
	S := len(e)
	prom := slices.Clone(e)
	settled := make([]bool, S)
	for range S {
		u, best := -1, infTime
		for i, done := range settled {
			if !done && prom[i] < best {
				u, best = i, prom[i]
			}
		}
		if u < 0 {
			break
		}
		settled[u] = true
		for v := range S {
			if v != u && !settled[v] {
				prom[v] = min(prom[v], best+f[u][v])
			}
		}
	}
	bnd := make([]Time, S)
	for i := range S {
		bnd[i] = infTime
		for j := range S {
			if j != i {
				bnd[i] = min(bnd[i], prom[j]+f[j][i])
			}
		}
	}
	return bnd
}

// randomFloors returns an S×S direct floor matrix (0 on the diagonal) of
// one of three kinds: uniform; site-blocked, each shard in one of up to
// three sites with a cheap floor inside a site and a dear one across; or
// non-metric, where the direct floor is often dearer than a two-hop path
// and some pairs have no link at all (infTime).
func randomFloors(rng *RNG, kind, S int) [][]Time {
	const d = 100
	site := make([]int, S)
	for i := range site {
		site[i] = rng.Intn(3)
	}
	f := make([][]Time, S)
	for j := range f {
		f[j] = make([]Time, S)
		for i := range f[j] {
			switch {
			case i == j:
			case kind == 0:
				f[j][i] = d
			case kind == 1 && site[i] == site[j]:
				f[j][i] = d
			case kind == 1:
				f[j][i] = 7 * d
			case rng.Intn(6) == 0:
				f[j][i] = infTime
			default:
				f[j][i] = Time(1+rng.Intn(12)) * d / 2
			}
		}
	}
	return f
}

// TestBoundsMatchDijkstra: the closed form over the closed floor matrix
// gives every shard the bound the Dijkstra pass gives it, for S = 1..16
// on uniform, site-blocked and non-metric floors, with next-event vectors
// that tie and leave shards idle (infTime). A runner built from per-link
// declarations closes the matrix of its shard-pair minima.
func TestBoundsMatchDijkstra(t *testing.T) {
	rng := NewRNG(5)
	for S := 1; S <= 16; S++ {
		for kind := range 3 {
			for trial := 0; trial < 60; trial++ {
				f := randomFloors(rng, kind, S)
				closed := make([][]Time, S)
				for j := range f {
					closed[j] = slices.Clone(f[j])
				}
				r := &ShardedRunner{reach: closeFloors(closed), e: make([]Time, S), bnd: make([]Time, S)}
				for e := 0; e < 8; e++ {
					for i := range r.e {
						r.e[i] = Time(rng.Intn(9)) * 50
						if rng.Intn(4) == 0 {
							r.e[i] = infTime
						}
					}
					r.computeBounds()
					if want := dijkstraBounds(f, r.e); !slices.Equal(r.bnd, want) {
						t.Fatalf("S=%d kind %d, floors %v, e=%v: closed form %v, Dijkstra %v", S, kind, f, r.e, r.bnd, want)
					}
				}
			}
		}
	}
	// Two processes per shard, shard i in site i%2: links inside a site
	// keep the global floor, links across declare 5Δ, and one link
	// declares less than the global floor (read as 1 at least).
	const S, d = 4, 100
	k := NewKernel(1, nil)
	k.SetLatencyFloor(d)
	k.SetTraceCap(-1)
	var pids []ProcessID
	for i := 0; i < 2*S; i++ {
		pids = append(pids, ProcessID(fmt.Sprintf("p%d", i)))
		k.Add(&pinger{id: pids[i]})
	}
	want := make([][]Time, S)
	for j := range want {
		want[j] = make([]Time, S)
		for i := range want[j] {
			switch {
			case i == j:
			case i%2 == j%2:
				want[j][i] = d
			default:
				want[j][i] = 5 * d
			}
		}
	}
	for _, from := range pids {
		for _, to := range pids {
			if (from[1]-'0')/2%2 != (to[1]-'0')/2%2 {
				k.SetLinkLatencyFloor(Link{From: from, To: to}, 5*d)
			}
		}
	}
	k.SetLinkLatencyFloor(Link{From: "p0", To: "p5"}, 0)
	want[0][2] = 1
	r, err := NewLookaheadRunner(k, func(p ProcessID) int { return int(p[1]-'0') / 2 }, S, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := closeFloors(want); !reflect.DeepEqual(r.reach, got) {
		t.Fatalf("per-link floors: reach %v, want %v", r.reach, got)
	}
}

// readinessOf is the readiness cache entry of slot s recomputed from the
// kernel at shard clock t, written out apart from shard.refresh.
func readinessOf(k *Kernel, s slot, t Time) Time {
	p := k.procs[s]
	if k.down[s] || !p.Ready() {
		return infTime
	}
	if w, ok := p.(Waker); ok {
		if at, useful := w.WakeAt(t); useful {
			return at
		}
		return infTime
	}
	return t
}

// checkRunnerState compares what the runner keeps per shard with a full
// recomputation from the kernel: the pending count and mask, every
// readiness cache entry and their minimum. Entries at or below the shard
// clock all mean "can step now", so they compare as the clock.
func checkRunnerState(t *testing.T, k *Kernel, r *ShardedRunner) {
	t.Helper()
	for si, sh := range r.shards {
		pending, next := 0, infTime
		for i, s := range sh.slots {
			on := len(k.inbox[s]) > 0 && !k.down[s]
			if on {
				pending++
			}
			if got := sh.mask[i/64]>>(i%64)&1 == 1; got != on {
				t.Fatalf("shard %d, %s: pending bit %v, kernel says %v", si, k.ids[s], got, on)
			}
			at := readinessOf(k, s, sh.t)
			if got := max(sh.stepAt[s], sh.t); got != max(at, sh.t) {
				t.Fatalf("shard %d (clock %d), %s: cached readiness %d, recomputed %d", si, sh.t, k.ids[s], sh.stepAt[s], at)
			}
			next = min(next, at)
		}
		if sh.pending != pending {
			t.Fatalf("shard %d: pending %d, kernel has %d", si, sh.pending, pending)
		}
		if max(sh.next, sh.t) != max(next, sh.t) {
			t.Fatalf("shard %d (clock %d): minimum %d, recomputed %d", si, sh.t, sh.next, next)
		}
	}
}

// TestRunRereadsWhatChanged drives a runner through random sequences of
// budget-cut Runs, invocations named by NotifyInvoked, faults (crash,
// lossy crash, restart, replace, cut, heal) and serial deliveries and
// steps. Every Run re-reads only what NotifyInvoked named unless the
// kernel counted an edit, so whenever a round starts the runner's state
// must equal a full recomputation. One shard holds more than 64
// processes, so its pending mask spans two words.
func TestRunRereadsWhatChanged(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		k := NewKernel(seed, UniformLatency(20, 200))
		k.SetLatencyFloor(20)
		k.SetTraceCap(-1)
		shardOf := map[ProcessID]int{}
		for i := 0; i < 70; i++ {
			id := ProcessID(fmt.Sprintf("i%02d", i))
			k.Add(&pinger{id: id, echo: true})
			shardOf[id] = 0
		}
		var clients []*pinger
		var servers, busy []ProcessID // busy: every process but the idle ones
		for i := 0; i < 3; i++ {
			p := &pinger{id: ProcessID(fmt.Sprintf("p%d", i)), peer: ProcessID(fmt.Sprintf("q%d", (i+1)%3))}
			q := ProcessID(fmt.Sprintf("q%d", i))
			k.Add(p)
			k.Add(&pinger{id: q, echo: true})
			k.SetRecovery(q, func() Process { return &pinger{id: q, echo: true} })
			k.SetReplacement(q, func(*Kernel, Process, bool) (Process, SyncStats) {
				return &pinger{id: q, echo: true}, SyncStats{}
			})
			shardOf[p.id], shardOf[q] = i, i
			clients, servers = append(clients, p), append(servers, q)
			busy = append(busy, p.id, q)
		}
		timer := &timerProc{id: "t2", fireAt: 300}
		k.Add(timer)
		shardOf["t2"] = 2
		busy = append(busy, "t2")
		r, err := NewLookaheadRunner(k, func(p ProcessID) int { return shardOf[p] }, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		stop := func(*Kernel) bool { checkRunnerState(t, k, r); return false }
		rng := NewRNG(seed)
		all := k.Processes()
		for op := 0; op < 400; op++ {
			switch rng.Intn(9) {
			case 0, 1, 2:
				r.Run(stop, 1+rng.Intn(8))
			case 3:
				p := clients[rng.Intn(len(clients))]
				p.count += 1 + rng.Intn(3)
				r.NotifyInvoked(p.id, k.Now())
			case 4:
				timer.fired, timer.fireAt = false, k.Now()+Time(rng.Intn(400))
				r.NotifyInvoked("t2", k.Now())
			case 5:
				f := Fault{At: k.Now(), Proc: busy[rng.Intn(len(busy))], Lose: rng.Intn(2) == 0}
				switch rng.Intn(3) {
				case 0:
					f.Kind = FaultCrash
				case 1:
					f.Kind = FaultRestart
				default:
					f.Kind, f.Proc = FaultReplace, servers[rng.Intn(len(servers))]
				}
				k.ApplyFault(f)
			case 6:
				f := Fault{At: k.Now(), Kind: FaultCut, From: []ProcessID{servers[rng.Intn(3)]}, To: []ProcessID{clients[rng.Intn(3)].id}}
				if rng.Intn(2) == 0 {
					f.Kind = FaultHeal
				}
				k.ApplyFault(f)
			case 7:
				if m := k.EarliestArrival(); m != nil {
					k.Deliver(m.ID)
				}
			default:
				if pid := busy[rng.Intn(len(busy))]; !k.Down(pid) {
					k.StepProcess(pid)
				}
			}
		}
		for _, pid := range all {
			k.ApplyFault(Fault{At: k.Now(), Kind: FaultRestart, Proc: pid})
		}
		for _, p := range clients {
			k.ApplyFault(Fault{At: k.Now(), Kind: FaultHeal, From: servers, To: []ProcessID{p.id}})
		}
		r.Run(stop, 1_000_000)
		if !k.Quiescent() {
			t.Fatalf("seed %d: not quiescent after the final Run", seed)
		}
		mustConserve(t, k)
	}
}
