package protocol

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/store"
)

func TestDisjointPlacement(t *testing.T) {
	pl := Disjoint(3, 2)
	if pl.NumServers() != 3 {
		t.Fatalf("servers = %d", pl.NumServers())
	}
	if len(pl.Objects()) != 6 {
		t.Fatalf("objects = %v", pl.Objects())
	}
	if pl.IsReplicated() {
		t.Fatal("disjoint placement reported replicated")
	}
	// Each object has exactly one replica; each server hosts exactly 2.
	for _, obj := range pl.Objects() {
		if len(pl.ReplicasOf(obj)) != 1 {
			t.Fatalf("object %s has %d replicas", obj, len(pl.ReplicasOf(obj)))
		}
	}
	for _, s := range pl.Servers() {
		if len(pl.HostedBy(s)) != 2 {
			t.Fatalf("server %s hosts %v", s, pl.HostedBy(s))
		}
	}
	if pl.PrimaryOf("X0") != "s0" || !pl.Hosts("s0", "X0") || pl.Hosts("s1", "X0") {
		t.Fatal("placement mapping wrong")
	}
}

func TestReplicatedPlacementNoServerStoresAll(t *testing.T) {
	f := func(nRaw, rRaw uint8) bool {
		n := int(nRaw%4) + 3 // 3..6 servers
		r := int(rRaw%(uint8(n)-1)) + 1
		if r >= n {
			r = n - 1
		}
		pl := Replicated(n, 2*n, r)
		for _, s := range pl.Servers() {
			if len(pl.HostedBy(s)) >= len(pl.Objects()) {
				return false // some server stores everything
			}
		}
		for j := 0; j < 2*n; j++ {
			// Xj's primary is server j mod n, named first among its replicas.
			obj, primary := fmt.Sprintf("X%d", j), sim.ProcessID(fmt.Sprintf("s%d", j%n))
			reps := pl.ReplicasOf(obj)
			if len(reps) != r || reps[0] != primary || pl.PrimaryOf(obj) != primary {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestServerIndexStable(t *testing.T) {
	pl := Disjoint(3, 1)
	seen := map[int]bool{}
	for _, s := range pl.Servers() {
		idx := pl.ServerIndex(s)
		if idx < 0 || idx >= 3 || seen[idx] {
			t.Fatalf("bad index %d for %s", idx, s)
		}
		seen[idx] = true
	}
}

func TestObjectIndexMatchesObjects(t *testing.T) {
	pl := Disjoint(3, 4) // X10 sorts before X2
	for i, obj := range pl.Objects() {
		if got := pl.ObjectIndex(obj); got != i {
			t.Fatalf("ObjectIndex(%s) = %d, want %d", obj, got, i)
		}
	}
}

func TestServersForUnion(t *testing.T) {
	pl := Disjoint(3, 1)
	srvs := pl.ServersFor([]string{"X0", "X2"})
	if len(srvs) != 2 || srvs[0] != "s0" || srvs[1] != "s2" {
		t.Fatalf("ServersFor = %v", srvs)
	}
	// Overlapping replica sets, objects out of server order: each server
	// once, sorted.
	pl = NewPlacement(map[string][]sim.ProcessID{"A": {"s2", "s0"}, "B": {"s1", "s2"}})
	if srvs := pl.ServersFor([]string{"B", "A", "B"}); fmt.Sprint(srvs) != "[s0 s1 s2]" {
		t.Fatalf("ServersFor = %v", srvs)
	}
}

func TestPlacementPanicsOnUnknown(t *testing.T) {
	pl := Disjoint(2, 1)
	for _, fn := range []func(){
		func() { pl.PrimaryOf("nope") },
		func() { pl.ServerIndex("s99") },
		func() { pl.ObjectIndex("nope") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestEmptyReplicaSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPlacement(map[string][]sim.ProcessID{"X": {}})
}

func TestCoreLifecycle(t *testing.T) {
	pl := Disjoint(2, 1)
	c := NewCore("cX", pl)
	if c.Busy() {
		t.Fatal("fresh core busy")
	}
	txn := model.NewReadOnly(model.TxnID{}, "X0")
	id := c.Invoke(txn)
	if id.Client != "cX" || id.Seq != 1 {
		t.Fatalf("assigned id = %v", id)
	}
	if !c.Busy() || c.Started() {
		t.Fatal("state after invoke wrong")
	}
	if !c.Starting(10) || c.Starting(11) {
		t.Fatal("Starting must fire exactly once")
	}
	c.Result().Values["X0"] = "v"
	res := c.Finish(20)
	if res.Invoked != 10 || res.Completed != 20 || c.Busy() {
		t.Fatalf("finish result = %+v", res)
	}
	if c.Finished(id) != res {
		t.Fatal("result not recorded")
	}
	// Sequence numbers advance.
	id2 := c.Invoke(model.NewReadOnly(model.TxnID{}, "X1"))
	if id2.Seq != 2 {
		t.Fatalf("seq = %d", id2.Seq)
	}
}

// roundMsg is a minimal transaction payload for the round bookkeeping test.
type roundMsg struct{ tid model.TxnID }

func (m *roundMsg) Kind() string     { return "round" }
func (m *roundMsg) Txn() model.TxnID { return m.tid }

func TestCoreRound(t *testing.T) {
	c := NewCore("cX", Disjoint(2, 1))
	if c.Ready() || c.RoundDone() || c.Reply(&roundMsg{}) {
		t.Fatal("idle core is ready, done or takes a reply")
	}
	id := c.Invoke(model.NewReadOnly(model.TxnID{}, "X0", "X1"))
	if !c.Ready() || c.RoundDone() {
		t.Fatal("unstarted transaction: want ready, round not done")
	}
	c.Starting(1)
	out := c.Send(nil, "s0", &roundMsg{tid: id})
	out = c.Send(out, "s1", &roundMsg{tid: id})
	if len(out) != 2 || out[1].To != "s1" || c.Ready() || c.RoundDone() || c.Rounds() != 1 {
		t.Fatalf("after two sends: out = %v, ready = %v, done = %v, rounds = %d", out, c.Ready(), c.RoundDone(), c.Rounds())
	}
	if c.Reply(&roundMsg{tid: model.TxnID{Client: "cX", Seq: 9}}) {
		t.Fatal("reply for another transaction counted")
	}
	if !c.Reply(&roundMsg{tid: id}) || c.RoundDone() {
		t.Fatal("first reply: want counted, round still open")
	}
	if !c.Reply(&roundMsg{tid: id}) || !c.RoundDone() {
		t.Fatal("second reply: want counted, round done")
	}
	// A send with nothing pending opens the next round: one two-send
	// round and one one-send round are two rounds.
	c.Send(nil, "s0", &roundMsg{tid: id})
	if c.RoundDone() || !c.Reply(&roundMsg{tid: id}) || !c.RoundDone() {
		t.Fatal("one-send round: want open until its reply, then done")
	}
	if res := c.Finish(2); res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
	c.Invoke(model.NewReadOnly(model.TxnID{}, "X0"))
	c.Starting(3)
	if res := c.Reject(3, "nope"); res.Rounds != 0 {
		t.Fatalf("rejected before any send: rounds = %d, want 0", res.Rounds)
	}
}

// TestServerCore: the server core stores what the placement hosts on its
// server, is never Ready, carries its store for catch-up, and a clone's
// store is detached from the original's.
func TestServerCore(t *testing.T) {
	s := NewServerCore("s1", Disjoint(2, 2))
	var sc StoreCarrier = &s
	if s.ID() != "s1" || s.Ready() || fmt.Sprint(sc.ShardStore().Objects()) != "[X2 X3]" {
		t.Fatalf("id %s, ready %v, objects %v", s.ID(), s.Ready(), sc.ShardStore().Objects())
	}
	cp := s.CloneServerCore()
	cp.ShardStore().Install(&store.Version{Object: "X2", Value: "v", Writer: model.TxnID{Client: "c0", Seq: 1}})
	if cp.ID() != "s1" || cp.Placement() != s.Placement() || len(cp.ShardStore().Versions("X2")) != 1 || len(s.ShardStore().Versions("X2")) != 0 {
		t.Fatal("clone shares its store with the original")
	}
}

func TestCorePipelinesSecondInvoke(t *testing.T) {
	c := NewCore("cX", Disjoint(2, 1))
	id1 := c.Invoke(model.NewReadOnly(model.TxnID{}, "X0"))
	id2 := c.Invoke(model.NewReadOnly(model.TxnID{}, "X1"))
	id3 := c.Invoke(model.NewReadOnly(model.TxnID{}, "X0", "X1"))
	if id1.Seq != 1 || id2.Seq != 2 || id3.Seq != 3 {
		t.Fatalf("ids = %v %v %v", id1, id2, id3)
	}
	if c.Outstanding() != 3 {
		t.Fatalf("outstanding = %d, want 3", c.Outstanding())
	}
	// The active transaction is the first one; the rest are queued and
	// invisible to the protocol state machine.
	if c.Current().ID != id1 {
		t.Fatalf("current = %v, want %v", c.Current().ID, id1)
	}
	// Finishing the active transaction activates the next queued one,
	// unstarted, so Ready()-style scheduling picks it up.
	c.Starting(10)
	c.Finish(20)
	if c.Current().ID != id2 || c.Started() {
		t.Fatalf("after finish: current = %v started = %v", c.Current().ID, c.Started())
	}
	if c.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", c.Outstanding())
	}
	c.Starting(30)
	c.Reject(35, "nope")
	if c.Current().ID != id3 {
		t.Fatalf("after reject: current = %v, want %v", c.Current().ID, id3)
	}
	c.Starting(40)
	c.Finish(50)
	if c.Busy() || c.Outstanding() != 0 {
		t.Fatal("core busy after pipeline drained")
	}
	// TakeFinished drains completion-order results exactly once; until
	// then each is found by ID, afterwards the core has forgotten it.
	rejected := c.Finished(id2)
	fin := c.TakeFinished()
	if len(fin) != 3 || fin[0].Txn.ID != id1 || fin[1].Txn.ID != id2 || fin[2].Txn.ID != id3 {
		t.Fatalf("finished = %v", fin)
	}
	if fin[1].Err == "" || fin[1] != rejected {
		t.Fatal("rejected result lost its error")
	}
	if len(c.TakeFinished()) != 0 {
		t.Fatal("TakeFinished not drained")
	}
	for _, id := range []model.TxnID{id1, id2, id3} {
		if c.Finished(id) != nil {
			t.Fatalf("%v still held after it was taken", id)
		}
	}
}

func TestCloneCoreDetachesDrainedQueue(t *testing.T) {
	c := NewCore("cX", Disjoint(2, 1))
	c.Invoke(model.NewReadOnly(model.TxnID{}, "X0"))
	c.Invoke(model.NewReadOnly(model.TxnID{}, "X1"))
	c.Starting(1)
	c.Finish(2) // pops the queue: len 0, but backing capacity remains
	cp := c.CloneCore()
	id3 := c.Invoke(model.NewReadOnly(model.TxnID{}, "X0"))
	cp.Invoke(model.NewReadOnly(model.TxnID{}, "X1")) // must not clobber id3
	c.Starting(3)
	c.Finish(4)
	if got := c.Current().ID; got != id3 {
		t.Fatalf("original's queued txn clobbered by clone append: current = %v, want %v", got, id3)
	}
}

func TestCloneCoreCopiesPipeline(t *testing.T) {
	c := NewCore("cX", Disjoint(2, 1))
	c.Invoke(model.NewReadOnly(model.TxnID{}, "X0"))
	c.Invoke(model.NewReadOnly(model.TxnID{}, "X1"))
	cp := c.CloneCore()
	cp.Starting(1)
	cp.Finish(2)
	cp.Starting(3)
	cp.Finish(4)
	if c.Outstanding() != 2 || c.Started() {
		t.Fatal("clone drained the original's queue")
	}
	if len(c.TakeFinished()) != 0 || len(cp.TakeFinished()) != 2 {
		t.Fatal("finished lists shared between clones")
	}
}

func TestCoreReject(t *testing.T) {
	c := NewCore("cX", Disjoint(2, 1))
	id := c.Invoke(model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "a"}, model.Write{Object: "X1", Value: "b"}))
	res := c.Reject(5, "unsupported")
	if res.OK() || res.Err != "unsupported" || c.Busy() {
		t.Fatalf("reject = %+v", res)
	}
	if c.Finished(id) != res {
		t.Fatal("rejected result not recorded")
	}
	if fin := c.TakeFinished(); len(fin) != 1 || fin[0] != res || c.Finished(id) != nil {
		t.Fatalf("rejected result not taken once, then gone: %v", fin)
	}
}

func TestCloneCoreIndependence(t *testing.T) {
	c := NewCore("cX", Disjoint(2, 1))
	c.Invoke(model.NewReadOnly(model.TxnID{}, "X0"))
	c.Starting(1)
	c.Result().Values["X0"] = "orig"
	cp := c.CloneCore()
	cp.Result().Values["X0"] = "mut"
	cp.Current().ReadSet[0] = "Z"
	if c.Result().Values["X0"] != "orig" || c.Current().ReadSet[0] != "X0" {
		t.Fatal("clone shares state")
	}
}

func TestClaimsFastROT(t *testing.T) {
	full := Claims{OneRound: true, OneValue: true, NonBlocking: true}
	if !full.FastROT() {
		t.Fatal("full claims not fast")
	}
	for _, c := range []Claims{
		{OneValue: true, NonBlocking: true},
		{OneRound: true, NonBlocking: true},
		{OneRound: true, OneValue: true},
	} {
		if c.FastROT() {
			t.Fatalf("partial claims %+v reported fast", c)
		}
	}
}

func TestIsInitClient(t *testing.T) {
	if !IsInitClient("cin0") || IsInitClient("c0") || IsInitClient("r1") || IsInitClient("ci") {
		t.Fatal("IsInitClient wrong")
	}
}
