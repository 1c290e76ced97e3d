package sim

import (
	"reflect"
	"testing"
)

func mustConserve(t *testing.T, k *Kernel) {
	t.Helper()
	if err := k.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// A persistent crash freezes the target: no progress involving it while
// down, full resumption — nothing lost — after restart.
func TestCrashPersistFreezesAndResumes(t *testing.T) {
	k, a, _ := newPingPair(1, 5)
	if !k.crash("b", false) {
		t.Fatal("crash b refused")
	}
	Drain(k, 10_000)
	if a.pongs != 0 {
		t.Fatalf("pongs while peer down = %d, want 0", a.pongs)
	}
	if k.HeldMessages() == 0 {
		t.Fatal("no messages held while destination down")
	}
	if k.Quiescent() {
		t.Fatal("held messages should keep the kernel non-quiescent")
	}
	mustConserve(t, k)
	healAt := k.Now() + 500
	k.AdvanceTo(healAt)
	if !k.restart("b") {
		t.Fatal("restart b refused")
	}
	Drain(k, 10_000)
	if a.pongs != 5 {
		t.Fatalf("pongs after restart = %d, want 5", a.pongs)
	}
	if k.HeldMessages() != 0 || !k.Quiescent() {
		t.Fatalf("held=%d quiescent=%v after heal+drain", k.HeldMessages(), k.Quiescent())
	}
	// Late, never early: nothing was delivered before its ReadyAt.
	mustConserve(t, k)
}

// A lossy crash drops the income buffer and rebuilds the process via its
// recovery hook; message conservation still holds (the lost messages had
// already been delivered).
func TestCrashLoseDropsInboxAndRecovers(t *testing.T) {
	k, a, _ := newPingPair(2, 4)
	k.SetRecovery("b", func() Process {
		return &pinger{id: "b", peer: "a", echo: true}
	})
	// Let a send its pings, then deliver one into b's inbox unconsumed.
	Run(k, &RoundRobin{}, func(kk *Kernel) bool { return len(kk.Inbox("b")) > 0 }, 10_000)
	if len(k.Inbox("b")) == 0 {
		t.Fatal("setup: no message pending at b")
	}
	if !k.crash("b", true) {
		t.Fatal("crash b refused")
	}
	if got := k.LostInboxMessages(); got == 0 {
		t.Fatal("lossy crash dropped no inbox messages")
	}
	mustConserve(t, k)
	k.restart("b")
	Drain(k, 10_000)
	if a.pongs >= 4 {
		t.Fatalf("pongs = %d: lossy crash lost nothing", a.pongs)
	}
	mustConserve(t, k)
}

// A cut link buffers (never drops) its traffic; heal releases it and the
// run completes as if the messages were merely slow.
func TestCutHealBuffersNeverDrops(t *testing.T) {
	k, a, _ := newPingPair(3, 6)
	f := Fault{Kind: FaultCut, From: []ProcessID{"a"}, To: []ProcessID{"b"}}
	if !k.ApplyFault(f).Applied {
		t.Fatal("cut refused")
	}
	Drain(k, 10_000)
	if a.pongs != 0 {
		t.Fatalf("pongs across a cut link = %d, want 0", a.pongs)
	}
	held := k.HeldMessages()
	if held == 0 {
		t.Fatal("no messages held on the cut link")
	}
	mustConserve(t, k)
	healAt := k.Now() + 1000
	k.AdvanceTo(healAt)
	if !k.ApplyFault(Fault{Kind: FaultHeal, From: []ProcessID{"a"}, To: []ProcessID{"b"}}).Applied {
		t.Fatal("heal refused")
	}
	Drain(k, 10_000)
	if a.pongs != 6 {
		t.Fatalf("pongs after heal = %d, want 6 (a partition must not lose messages)", a.pongs)
	}
	// Released messages were delivered at max(ReadyAt, heal): never early.
	mustConserve(t, k)
}

// Faults are idempotent no-ops when re-applied, so arbitrary (fuzzed)
// schedules are safe.
func TestFaultIdempotence(t *testing.T) {
	k, _, _ := newPingPair(4, 1)
	if !k.crash("a", false) || k.crash("a", true) {
		t.Fatal("double crash should refuse")
	}
	if !k.restart("a") || k.restart("a") {
		t.Fatal("double restart should refuse")
	}
	l := Link{From: "a", To: "b"}
	if !k.cutLink(l) || k.cutLink(l) {
		t.Fatal("double cut should refuse")
	}
	if !k.healLink(l) || k.healLink(l) {
		t.Fatal("double heal should refuse")
	}
	if k.crash("nosuch", false) || k.restart("nosuch") {
		t.Fatal("unknown process faults should refuse")
	}
}

// ApplyFault's result for every kind: what applied, the targets it took
// down that were up, the targets a replace or restore left down for their
// companion restarts, and the summed catch-up of the replacement hooks.
func TestApplyFaultResult(t *testing.T) {
	ab := []ProcessID{"a", "b"}
	cut := Fault{Kind: FaultCut, From: ab[:1], To: ab[1:]}
	crashB := Fault{Kind: FaultCrash, Proc: "b"}
	cases := []struct {
		name  string
		prior []Fault
		f     Fault
		want  FaultResult
		down  []ProcessID // down afterwards
	}{
		{"crash", nil, crashB, FaultResult{Applied: true, Downed: 1}, ab[1:]},
		{"repeated crash", []Fault{crashB}, crashB, FaultResult{}, ab[1:]},
		{"restart", []Fault{crashB}, Fault{Kind: FaultRestart, Proc: "b"}, FaultResult{Applied: true}, nil},
		{"cut", nil, cut, FaultResult{Applied: true}, nil},
		{"repeated cut", []Fault{cut}, cut, FaultResult{}, nil},
		{"heal", []Fault{cut}, Fault{Kind: FaultHeal, From: cut.From, To: cut.To}, FaultResult{Applied: true}, nil},
		{"replace up", nil, Fault{Kind: FaultReplace, Proc: "b"},
			FaultResult{Applied: true, Downed: 1, Pending: ab[1:], Sync: SyncStats{Snapshot: 2, Peer: 1}}, ab[1:]},
		{"replace down", []Fault{crashB}, Fault{Kind: FaultReplace, Proc: "b", Lose: true},
			FaultResult{Applied: true, Pending: ab[1:], Sync: SyncStats{Snapshot: 2, Peer: 1}}, ab[1:]},
		{"restore one down", []Fault{crashB}, Fault{Kind: FaultRestore, From: ab},
			FaultResult{Applied: true, Downed: 1, Pending: ab, Sync: SyncStats{Snapshot: 4, Peer: 2}}, ab},
		{"unknown target", nil, Fault{Kind: FaultReplace, Proc: "nosuch"}, FaultResult{}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k, _, _ := newPingPair(7, 3)
			for _, pid := range ab {
				k.SetReplacement(pid, func(_ *Kernel, old Process, _ bool) (Process, SyncStats) {
					return old.Clone(), SyncStats{Snapshot: 2, Peer: 1}
				})
			}
			Drain(k, 20)
			for _, f := range c.prior {
				k.ApplyFault(f)
			}
			if got := k.ApplyFault(c.f); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("%s: got %+v, want %+v", c.f, got, c.want)
			}
			var down []ProcessID
			for _, pid := range ab {
				if k.Down(pid) {
					down = append(down, pid)
				}
			}
			if !reflect.DeepEqual(down, c.down) {
				t.Fatalf("down afterwards %v, want %v", down, c.down)
			}
			mustConserve(t, k)
		})
	}
}

// A replace needs the hook that builds the successor: without one the
// kernel panics instead of leaving a process it cannot rebuild.
func TestReplaceWithoutHookPanics(t *testing.T) {
	k, _, _ := newPingPair(7, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("replace without a replacement hook did not panic")
		}
	}()
	k.ApplyFault(Fault{Kind: FaultReplace, Proc: "b"})
}

// Snapshots carry the fault state: a probe taken mid-outage sees the
// crashed process and the held messages, and evolves independently.
func TestSnapshotPreservesFaultState(t *testing.T) {
	k, _, _ := newPingPair(5, 5)
	k.crash("b", false)
	k.cutLink(Link{From: "b", To: "a"})
	Drain(k, 10_000)
	held := k.HeldMessages()
	c := k.Snapshot()
	if !c.Down("b") {
		t.Fatal("snapshot lost the crash")
	}
	if !c.LinkCut(Link{From: "b", To: "a"}) {
		t.Fatal("snapshot lost the cut")
	}
	if c.HeldMessages() != held {
		t.Fatalf("snapshot holds %d messages, original %d", c.HeldMessages(), held)
	}
	mustConserve(t, c)
	// Healing the copy must not free the original.
	c.restart("b")
	c.healLink(Link{From: "b", To: "a"})
	Drain(c, 10_000)
	if !c.Quiescent() {
		t.Fatal("healed snapshot did not drain")
	}
	if !k.Down("b") || k.HeldMessages() != held {
		t.Fatal("healing the snapshot leaked into the original")
	}
}

// The sharded engine replays a crash/restart schedule identically to its
// own Workers=1 oracle, and faults applied between Runs take effect:
// nothing is stepped or delivered at a downed process.
func TestShardedRunHonorsFaults(t *testing.T) {
	k, a, _ := newPingPair(6, 5)
	k.SetTraceCap(-1)
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
	k.crash("b", false)
	r.Run(nil, 10_000)
	if a.pongs != 0 {
		t.Fatalf("pongs while peer down = %d, want 0", a.pongs)
	}
	k.AdvanceTo(k.Now() + 300)
	k.restart("b")
	r.Run(nil, 10_000)
	if a.pongs != 5 {
		t.Fatalf("pongs after restart = %d, want 5", a.pongs)
	}
	mustConserve(t, k)
}
