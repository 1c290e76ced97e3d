package sim

import "testing"

func TestConstantLatencyIsAModel(t *testing.T) {
	var m LatencyModel = ConstantLatency(250)
	r := NewRNG(1)
	for i := 0; i < 5; i++ {
		if d := m(Link{"a", "b"}, r); d != 250 {
			t.Fatalf("latency = %d, want 250", d)
		}
	}
	k := NewKernel(1, ConstantLatency(7))
	k.Add(&pinger{id: "a", peer: "b", count: 1})
	k.Add(&pinger{id: "b", peer: "a", echo: true})
	k.StepProcess("a")
	m0 := k.InTransit()[0]
	if got := m0.ReadyAt - m0.SentAt; got != 7 {
		t.Fatalf("sampled latency = %d, want 7", got)
	}
}

// TestNetworkHeapMatchesScan cross-checks the kernel's indexed earliest
// arrival against a straight scan of the transit buffer on every event of
// a serial run.
func TestNetworkHeapMatchesScan(t *testing.T) {
	k, _, _ := newPingPair(91, 12)
	sched := &RoundRobin{}
	for i := 0; i < 10_000; i++ {
		var best *Message
		for _, m := range k.transit {
			if m.gone {
				continue
			}
			if best == nil || m.ReadyAt < best.ReadyAt || (m.ReadyAt == best.ReadyAt && m.ID < best.ID) {
				best = m
			}
		}
		if got := k.EarliestArrival(); (got == nil) != (best == nil) || (got != nil && got.ID != best.ID) {
			t.Fatalf("event %d: heap says %v, scan says %v", i, got, best)
		}
		a, ok := sched.Next(k)
		if !ok {
			return
		}
		Apply(k, a)
	}
}

func TestNetworkSchedulerDeterministic(t *testing.T) {
	run := func() (Time, int) {
		k, a, _ := newPingPair(17, 20)
		Drain(k, 10_000)
		return k.Now(), a.pongs
	}
	t1, p1 := run()
	t2, p2 := run()
	if t1 != t2 || p1 != p2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", t1, p1, t2, p2)
	}
	if p1 != 20 {
		t.Fatalf("pongs = %d, want 20", p1)
	}
}

func TestTraceDisabledStillRuns(t *testing.T) {
	k, a, _ := newPingPair(37, 25)
	k.SetTraceCap(-1)
	k.SetPayloadRetention(false)
	Drain(k, 100_000)
	if a.pongs != 25 {
		t.Fatalf("pongs = %d, want 25", a.pongs)
	}
	if len(k.Trace().Events) != 0 {
		t.Fatalf("retained %d events with tracing off", len(k.Trace().Events))
	}
	if k.Trace().Dropped == 0 {
		t.Fatal("dropped counter not advanced")
	}
	if k.PayloadOf(1) != nil {
		t.Fatal("payload retained with retention off")
	}
}

// TestLoadModeRunMatchesTracedRun verifies that disabling tracing does not
// change the execution itself: same seed, same final state and clock.
func TestLoadModeRunMatchesTracedRun(t *testing.T) {
	run := func(loadMode bool) (Time, int) {
		k, a, _ := newPingPair(43, 30)
		if loadMode {
			k.SetTraceCap(-1)
			k.SetPayloadRetention(false)
		}
		Drain(k, 100_000)
		return k.Now(), a.pongs
	}
	tt, pt := run(false)
	tl, pl := run(true)
	if tt != tl || pt != pl {
		t.Fatalf("load mode diverged: traced (%d,%d) vs load (%d,%d)", tt, pt, tl, pl)
	}
}

func TestSnapshotPreservesArrivalIndex(t *testing.T) {
	k, _, _ := newPingPair(47, 6)
	k.StepProcess("a")
	k.StepProcess("a")
	snap := k.Snapshot()
	// The snapshot's heap must index its own cloned messages.
	orig := k.EarliestArrival()
	cp := snap.EarliestArrival()
	if orig == nil || cp == nil || orig == cp {
		t.Fatal("snapshot shares or lost arrival index entries")
	}
	if orig.ID != cp.ID {
		t.Fatalf("earliest arrival differs: %d vs %d", orig.ID, cp.ID)
	}
	// Draining the snapshot must not disturb the original's index.
	Drain(snap, 10_000)
	if k.EarliestArrival() == nil {
		t.Fatal("original arrival index disturbed by snapshot drain")
	}
}
