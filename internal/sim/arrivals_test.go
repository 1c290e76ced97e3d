package sim

import (
	"container/heap"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// refHeap is container/heap over the same (ReadyAt, ID) order: what the
// typed arrivalHeap replaced, kept as its reference.
type refHeap []*Message

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return earlier(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*Message)) }
func (h *refHeap) Pop() any {
	old := *h
	m := old[len(old)-1]
	*h = old[:len(old)-1]
	return m
}

// TestArrivalHeapMatchesContainerHeap: random multisets of (ReadyAt, ID)
// — few distinct instants so ties are the rule, IDs in shuffled order,
// now and then the same message twice (a released message whose stale
// entry never surfaced) — pushed and popped interleaved come out of the
// typed heap in the sequence container/heap yields.
func TestArrivalHeapMatchesContainerHeap(t *testing.T) {
	rng := NewRNG(5)
	for trial := 0; trial < 300; trial++ {
		var h arrivalHeap
		var ref refHeap
		pop := func() {
			got, want := h.pop(), heap.Pop(&ref).(*Message)
			if got != want {
				t.Fatalf("trial %d: typed heap popped (%d,%d), container/heap (%d,%d)",
					trial, got.ReadyAt, got.ID, want.ReadyAt, want.ID)
			}
		}
		n := 1 + rng.Intn(200)
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i + 1)
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			ids[i], ids[j] = ids[j], ids[i]
		}
		for _, id := range ids {
			m := &Message{ID: id, ReadyAt: Time(rng.Intn(12))}
			for c := 1 + rng.Intn(8)/7; c > 0; c-- {
				h.push(m)
				heap.Push(&ref, m)
			}
			if rng.Intn(3) == 0 {
				pop()
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d entries left in the typed heap", trial, len(h))
		}
	}
}

// scanEarliest is EarliestArrival by a straight scan of the transit
// buffer.
func scanEarliest(k *Kernel) *Message {
	var best *Message
	for _, m := range k.transit {
		if !m.gone && !m.held && (best == nil || earlier(m, best)) {
			best = m
		}
	}
	return best
}

// TestShardedEarliestArrivalMatchesScan: with a runner attached the
// kernel's index is one heap per shard, and after every budget-cut Run —
// through a cut that holds messages sitting in a partition and the heal
// that pushes them again — EarliestArrival still equals the scan
// (TestNetworkHeapMatchesScan, sharded).
func TestShardedEarliestArrivalMatchesScan(t *testing.T) {
	k, r, a := crossShardPing(t, 30, 100, 900, 100)
	if len(k.arrivals) != 2 {
		t.Fatalf("%d partitions after attaching a 2-shard runner", len(k.arrivals))
	}
	for i := 0; i < 10_000 && !k.Quiescent(); i++ {
		r.Run(nil, 3)
		switch i {
		case 8:
			k.CutLink(Link{From: "a", To: "b"})
		case 30:
			k.AdvanceTo(k.Now() + 2_000)
			k.HealLink(Link{From: "a", To: "b"})
		}
		if got, want := k.EarliestArrival(), scanEarliest(k); got != want {
			t.Fatalf("after run %d: index says %v, scan says %v", i, got, want)
		}
	}
	if a.pongs != 30 {
		t.Fatalf("pongs = %d, want 30", a.pongs)
	}
	mustConserve(t, k)
}

// TestCrashBetweenBudgetCutRuns: a crash lands between two budget-cut
// Runs while messages for the victim sit in its partition of the index.
// No held or delivered message is offered by any partition top while it
// is down and the victim takes no step; after the restart every ping is
// consumed exactly once, and after a lossy crash the process the recovery
// hook built is the one the shard steps.
func TestCrashBetweenBudgetCutRuns(t *testing.T) {
	for _, lose := range []bool{false, true} {
		t.Run(fmt.Sprintf("lose=%v", lose), func(t *testing.T) {
			k, r, a := crossShardPing(t, 24, 100, 900, 100)
			b := k.Process("b").(*pinger)
			fresh := &pinger{id: "b", peer: "a", echo: true}
			k.SetRecovery("b", func(Process) Process { return fresh })
			// One event per shard and Run: the cut falls between a delivery
			// to b and the step that would consume it.
			for len(k.Inbox("b")) == 0 {
				if r.Run(nil, 1) == 0 {
					t.Fatal("setup: ran dry before a delivery to b")
				}
			}
			if len(k.arrivals[1]) < 4 {
				t.Fatalf("setup: only %d messages parked for b", len(k.arrivals[1]))
			}
			k.Crash("b", lose)
			lost := k.LostInboxMessages()
			if lose == (lost == 0) {
				t.Fatalf("lose=%v but %d messages lost with the inbox", lose, lost)
			}
			stepsAtCrash := len(b.stepLog)
			for i := 0; i < 40; i++ {
				r.Run(nil, 2)
				pending := 0
				for _, in := range k.inbox {
					if len(in) > 0 {
						pending++
					}
				}
				if pending != k.pendingInboxes {
					t.Fatalf("down, run %d: %d income buffers hold messages, the kernel counts %d", i, pending, k.pendingInboxes)
				}
				for p := range k.arrivals {
					if m := k.arrivals[p].top(); m != nil && (m.held || m.gone || m.To == "b") {
						t.Fatalf("partition %d offers %v (held=%v gone=%v) while b is down", p, m, m.held, m.gone)
					}
				}
				if got, want := k.EarliestArrival(), scanEarliest(k); got != want {
					t.Fatalf("down, run %d: index says %v, scan says %v", i, got, want)
				}
			}
			if len(b.stepLog) != stepsAtCrash {
				t.Fatal("b stepped while down")
			}
			if k.HeldMessages() == 0 {
				t.Fatal("nothing held for the crashed process")
			}
			mustConserve(t, k)
			k.AdvanceTo(k.Now() + 3_000)
			k.Restart("b")
			for i := 0; i < 10_000 && !k.Quiescent(); i++ {
				r.Run(nil, 2)
			}
			seen := slices.Clone(b.stepLog)
			if lose {
				if len(b.stepLog) != stepsAtCrash || len(fresh.stepLog) == 0 {
					t.Fatalf("after a lossy restart the corpse took %d more steps, the replacement consumed %d pings",
						len(b.stepLog)-stepsAtCrash, len(fresh.stepLog))
				}
				seen = append(seen, fresh.stepLog...)
			}
			slices.Sort(seen)
			if len(slices.Compact(slices.Clone(seen))) != len(seen) {
				t.Fatalf("a ping was consumed twice: %v", seen)
			}
			if want := 24 - int(lost); len(seen) != want || a.pongs != want {
				t.Fatalf("%d pings consumed, %d pongs, want %d (24 sent, %d lost with the inbox)", len(seen), a.pongs, want, lost)
			}
			mustConserve(t, k)
		})
	}
}

type echoPayload struct{ n int }

func (p *echoPayload) Kind() string { return "echo" }

// echoServer answers every message with the same payload.
type echoServer struct{ id ProcessID }

func (s *echoServer) ID() ProcessID  { return s.id }
func (s *echoServer) Ready() bool    { return false }
func (s *echoServer) Clone() Process { c := *s; return &c }
func (s *echoServer) Step(_ Time, inbox []*Message) []Outbound {
	out := make([]Outbound, 0, len(inbox))
	for _, m := range inbox {
		out = append(out, Outbound{To: m.From, Payload: m.Payload})
	}
	return out
}

// echoClient keeps one request outstanding, servers visited round-robin.
type echoClient struct {
	id      ProcessID
	servers []ProcessID
	left    int
	started bool
}

func (c *echoClient) ID() ProcessID  { return c.id }
func (c *echoClient) Ready() bool    { return !c.started && c.left > 0 }
func (c *echoClient) Clone() Process { d := *c; return &d }
func (c *echoClient) Step(_ Time, inbox []*Message) []Outbound {
	if c.started && len(inbox) == 0 || c.left == 0 {
		return nil
	}
	c.started = true
	c.left--
	return []Outbound{{To: c.servers[c.left%len(c.servers)], Payload: &echoPayload{n: c.left}}}
}

// TestEchoAllocsPerEvent is a counted gate on what the engine itself
// allocates: the echo cell of cmd/perf/layers (8 servers, one shard each,
// 64 closed-loop clients striped over them, no protocol work) must stay at
// or below 1.34 mallocs per event — measured 1.3292 when deliveries began
// reusing the income buffers, 1.8274 before. Per request (four events)
// the cell's own processes allocate a payload, the client's Outbound slice
// and the server's; the engine adds the two message envelopes.
func TestEchoAllocsPerEvent(t *testing.T) {
	const servers, clients, requests = 8, 64, 500
	k := NewKernel(42, nil)
	k.SetLatencyFloor(500)
	k.SetTraceCap(-1)
	k.SetPayloadRetention(false)
	shard := map[ProcessID]int{}
	var sids []ProcessID
	for i := 0; i < servers; i++ {
		id := ProcessID(fmt.Sprintf("s%d", i))
		sids = append(sids, id)
		shard[id] = i
		k.Add(&echoServer{id: id})
	}
	for i := 0; i < clients; i++ {
		id := ProcessID(fmt.Sprintf("c%d", i))
		shard[id] = i % servers
		k.Add(&echoClient{id: id, servers: sids, left: requests})
	}
	r, err := NewLookaheadRunner(k, func(p ProcessID) int { return shard[p] }, servers, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := r.Run(nil, 100_000_000)
	runtime.ReadMemStats(&after)
	if want := clients*requests*4 + clients; events != want {
		t.Fatalf("executed %d events, want %d", events, want)
	}
	if per := float64(after.Mallocs-before.Mallocs) / float64(events); per > 1.34 {
		t.Fatalf("%.4f allocs/event, gate 1.34", per)
	}
}
