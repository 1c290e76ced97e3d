package sim

import (
	"fmt"
	"slices"
	"testing"
)

// checkIndex fails unless no envelope on the free list is still named by
// an arrival entry (stale ones included: top discards those by their gone
// flag, which a reuse clears), every deliverable entry sits in its
// message's destination partition, and only a pinned message (one a
// fault held: its release pushed it again) has more than one entry.
func checkIndex(t *testing.T, k *Kernel) {
	t.Helper()
	free, seen := map[*Message]bool{}, map[*Message]bool{}
	for _, m := range k.free {
		free[m] = true
	}
	for p, h := range k.arrivals {
		for _, m := range h {
			if free[m] {
				t.Fatalf("partition %d still names %v, whose envelope is free", p, m)
			}
			if m.gone || m.held {
				continue
			}
			if int(k.part[m.to]) != p {
				t.Fatalf("partition %d indexes %v, addressed to partition %d", p, m, k.part[m.to])
			}
			if seen[m] && !m.pinned {
				t.Fatalf("the index names %v twice, and no fault ever held it", m)
			}
			seen[m] = true
		}
	}
}

// TestRecycledEnvelopesUnderFaults runs six cross-shard ping pairs on
// three shards in Runs cut at one to three events, crashing and
// restarting the echoes and cutting and healing links between Runs, so
// held messages are released while stale arrival entries for them
// remain. Every Run leaves the index whole (checkIndex) and the message
// accounts balanced; once every fault has cleared, every ping and every
// pong has been consumed exactly once.
func TestRecycledEnvelopesUnderFaults(t *testing.T) {
	const pairs, count = 6, 40
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			k := NewKernel(seed, UniformLatency(10, 100))
			k.SetLatencyFloor(10)
			k.SetTraceCap(-1)
			k.SetPayloadRetention(false)
			shard := map[ProcessID]int{}
			var pingers, echoes []*pinger
			for i := 0; i < pairs; i++ {
				a := &pinger{id: ProcessID(fmt.Sprintf("a%d", i)), peer: ProcessID(fmt.Sprintf("b%d", i)), count: count}
				b := &pinger{id: a.peer, peer: a.id, echo: true}
				shard[a.id], shard[b.id] = i%3, (i+1)%3
				k.Add(a)
				k.Add(b)
				pingers, echoes = append(pingers, a), append(echoes, b)
			}
			r, err := NewLookaheadRunner(k, func(p ProcessID) int { return shard[p] }, 3, 1+int(seed%2))
			if err != nil {
				t.Fatal(err)
			}
			rng := NewRNG(seed)
			var ids []ProcessID
			for _, b := range echoes {
				ids = append(ids, b.id)
			}
			faults := 0
			step := func() {
				r.Run(nil, 1+rng.Intn(3))
				checkIndex(t, k)
				mustConserve(t, k)
			}
			for round := 0; round < 3000; round++ {
				e := ids[rng.Intn(pairs)]
				group := []ProcessID{pingers[rng.Intn(pairs)].id}
				switch rng.Intn(8) {
				case 0, 1:
					// A flicker: everything in flight to e is held and at once
					// released, its arrival entries pushed a second time.
					k.ApplyFault(Fault{Kind: FaultCrash, Proc: e})
					k.ApplyFault(Fault{Kind: FaultRestart, Proc: e})
					faults++
				case 2:
					if k.ApplyFault(Fault{Kind: FaultCut, From: group, To: []ProcessID{e}}).Applied {
						faults++
					}
				case 3:
					// Releases messages older than the ones just delivered.
					if k.ApplyFault(Fault{Kind: FaultHeal, From: group, To: []ProcessID{e}}).Applied {
						faults++
					}
				}
				step()
			}
			for _, a := range pingers {
				k.ApplyFault(Fault{Kind: FaultHeal, From: []ProcessID{a.id}, To: ids})
			}
			for _, e := range ids {
				k.ApplyFault(Fault{Kind: FaultRestart, Proc: e})
			}
			for round := 0; !k.Quiescent(); round++ {
				if round > 50_000 {
					t.Fatal("the run does not quiesce once the faults clear")
				}
				step()
			}
			if faults < 100 || len(k.free) == 0 {
				t.Fatalf("%d faults applied, %d envelopes free: the run exercised too little", faults, len(k.free))
			}
			want := make([]int, count)
			for n := range want {
				want[n] = n
			}
			for i, a := range pingers {
				pings := slices.Sorted(slices.Values(echoes[i].stepLog))
				pongs := slices.Sorted(slices.Values(a.stepLog))
				if !slices.Equal(pings, want) || !slices.Equal(pongs, want) {
					t.Fatalf("pair %d: pings consumed %v, pongs %v; want each of %d once", i, pings, pongs, count)
				}
			}
		})
	}
}
