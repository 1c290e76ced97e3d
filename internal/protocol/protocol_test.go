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
	c := NewCore("cX", pl, fake{})
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
	c.Result().SetValue("X0", "v")
	res := c.Finish(20)
	if res.Invoked != 10 || res.Completed != 20 || c.Busy() {
		t.Fatalf("finish result = %+v", res)
	}
	if c.Finished(id) != res {
		t.Fatal("result not recorded")
	}
	// Sequence numbers advance.
	id2 := c.Invoke(twoWrites())
	if id2.Seq != 2 {
		t.Fatalf("seq = %d", id2.Seq)
	}
}

// roundMsg is a minimal transaction payload for the round bookkeeping test.
type roundMsg struct{ Msg }

func (m *roundMsg) Kind() string { return "round" }

func TestCoreRound(t *testing.T) {
	c := NewCore("cX", Disjoint(2, 1), fake{})
	if c.Ready() || c.RoundDone() || c.Reply(&roundMsg{}) {
		t.Fatal("idle core is ready, done or takes a reply")
	}
	id := c.Invoke(model.NewReadOnly(model.TxnID{}, "X0", "X1"))
	if !c.Ready() || c.RoundDone() {
		t.Fatal("unstarted transaction: want ready, round not done")
	}
	c.Starting(1)
	c.Send("s0", &roundMsg{Msg{TID: id}})
	c.Send("s1", &roundMsg{Msg{TID: id}})
	out := c.Sent()
	if len(out) != 2 || out[1].To != "s1" || c.Ready() || c.RoundDone() || c.Rounds() != 1 {
		t.Fatalf("after two sends: out = %v, ready = %v, done = %v, rounds = %d", out, c.Ready(), c.RoundDone(), c.Rounds())
	}
	if len(c.Sent()) != 0 {
		t.Fatal("Sent did not empty the send buffer")
	}
	if c.Reply(&roundMsg{Msg{TID: model.TxnID{Client: "cX", Seq: 9}}}) {
		t.Fatal("reply for another transaction counted")
	}
	if !c.Reply(&roundMsg{Msg{TID: id}}) || c.RoundDone() {
		t.Fatal("first reply: want counted, round still open")
	}
	if !c.Reply(&roundMsg{Msg{TID: id}}) || !c.RoundDone() {
		t.Fatal("second reply: want counted, round done")
	}
	// A send with nothing pending opens the next round: one two-send
	// round and one one-send round are two rounds.
	c.Send("s0", &roundMsg{Msg{TID: id}})
	if c.RoundDone() || !c.Reply(&roundMsg{Msg{TID: id}}) || !c.RoundDone() {
		t.Fatal("one-send round: want open until its reply, then done")
	}
	if res := c.Finish(2); res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
	id = c.Invoke(twoWrites())
	if c.Starting(3) || c.Finished(id).Rounds != 0 {
		t.Fatalf("refused before any send: rounds = %d, want 0", c.Finished(id).Rounds)
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
	c := NewCore("cX", Disjoint(2, 1), fake{})
	id1 := c.Invoke(model.NewReadOnly(model.TxnID{}, "X0"))
	id2 := c.Invoke(twoWrites())
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
	c.Starting(30) // refused
	if c.Current().ID != id3 || c.Started() {
		t.Fatalf("after refusal: current = %v, want %v unstarted", c.Current().ID, id3)
	}
	c.Starting(40)
	c.Finish(50)
	if c.Busy() || c.Outstanding() != 0 {
		t.Fatal("core busy after pipeline drained")
	}
	// TakeFinished drains completion-order results exactly once,
	// appending them after what dst already holds; until then each is
	// found by ID, afterwards the core has forgotten it.
	rejected := c.Finished(id2)
	held := &model.Result{}
	fin := c.TakeFinished([]*model.Result{held})
	if len(fin) != 4 || fin[0] != held {
		t.Fatalf("finished = %v, want the held result then three", fin)
	}
	if fin = fin[1:]; fin[0].Txn.ID != id1 || fin[1].Txn.ID != id2 || fin[2].Txn.ID != id3 {
		t.Fatalf("finished = %v", fin)
	}
	if fin[1].Err == "" || fin[1] != rejected {
		t.Fatal("rejected result lost its error")
	}
	if again := c.TakeFinished(fin[:0]); len(again) != 0 {
		t.Fatal("TakeFinished not drained")
	}
	for _, id := range []model.TxnID{id1, id2, id3} {
		if c.Finished(id) != nil {
			t.Fatalf("%v still held after it was taken", id)
		}
	}
}

func TestCloneCoreDetachesDrainedQueue(t *testing.T) {
	c := NewCore("cX", Disjoint(2, 1), fake{})
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
	c := NewCore("cX", Disjoint(2, 1), fake{})
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
	if len(c.TakeFinished(nil)) != 0 || len(cp.TakeFinished(nil)) != 2 {
		t.Fatal("finished lists shared between clones")
	}
}

// fake is a protocol for the core's tests: the core reads only its name
// and its multi-object write claim.
type fake struct{ multiWrite bool }

func (fake) Name() string                                    { return "fake" }
func (p fake) Claims() Claims                                { return Claims{MultiWriteTxn: p.multiWrite} }
func (fake) NewServer(sim.ProcessID, *Placement) sim.Process { return nil }
func (fake) NewClient(sim.ProcessID, *Placement) Client      { return nil }

func twoWrites() *model.Txn {
	return model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "a"}, model.Write{Object: "X1", Value: "b"})
}

func TestCoreReject(t *testing.T) {
	c := NewCore("cX", Disjoint(2, 1), fake{})
	id := c.Invoke(twoWrites())
	if c.Starting(5) {
		t.Fatal("multi-object write started without the claim")
	}
	res := c.Finished(id)
	if res == nil || res.OK() || res.Invoked != 5 || res.Completed != 5 || c.Busy() {
		t.Fatalf("refusal = %+v", res)
	}
	if fin := c.TakeFinished(nil); len(fin) != 1 || fin[0] != res || c.Finished(id) != nil {
		t.Fatalf("refused result not taken once, then gone: %v", fin)
	}
}

// TestCoreStartingRefusesShapes: Starting refuses a multi-object write
// exactly when the protocol does not claim them, and every read-write
// transaction, with the protocol's name in the text; it starts the rest.
func TestCoreStartingRefusesShapes(t *testing.T) {
	w := func(obj string) model.Write { return model.Write{Object: obj, Value: "v"} }
	const mw, rw = "fake: multi-object write transactions unsupported", "fake: read-write transactions unsupported"
	for _, tc := range []struct {
		txn        *model.Txn
		multiWrite bool
		want       string // the refusal, "" to start
	}{
		{model.NewReadOnly(model.TxnID{}, "X0", "X1"), false, ""},
		{model.NewWriteOnly(model.TxnID{}, w("X0")), false, ""},
		{model.NewWriteOnly(model.TxnID{}, w("X0"), w("X0")), false, ""},
		{model.NewWriteOnly(model.TxnID{}, w("X0"), w("X1")), false, mw},
		{model.NewWriteOnly(model.TxnID{}, w("X0"), w("X1")), true, ""},
		{&model.Txn{ReadSet: []string{"X0"}, Writes: []model.Write{w("X1")}}, true, rw},
		{&model.Txn{ReadSet: []string{"X0"}, Writes: []model.Write{w("X0"), w("X1")}}, false, mw},
	} {
		c := NewCore("cX", Disjoint(2, 1), fake{multiWrite: tc.multiWrite})
		id := c.Invoke(tc.txn)
		next := c.Invoke(model.NewReadOnly(model.TxnID{}, "X0"))
		started := c.Starting(7)
		if tc.want == "" {
			if !started || c.Current().ID != id || c.Finished(id) != nil {
				t.Errorf("%v (multi-write %v): not started", tc.txn, tc.multiWrite)
			}
			continue
		}
		res := c.Finished(id)
		if started || res == nil || res.Err != tc.want || res.Rounds != 0 {
			t.Errorf("%v (multi-write %v): started %v, result %+v; want refused with %q", tc.txn, tc.multiWrite, started, res, tc.want)
			continue
		}
		if c.Current().ID != next || c.Started() || !c.Starting(8) {
			t.Errorf("%v: the transaction queued behind the refusal does not start on the next step", tc.txn)
		}
	}
}

func TestCloneCoreIndependence(t *testing.T) {
	c := NewCore("cX", Disjoint(2, 1), fake{})
	c.Invoke(model.NewReadOnly(model.TxnID{}, "X0"))
	c.Starting(1)
	c.Result().SetValue("X0", "orig")
	cp := c.CloneCore()
	cp.Result().SetValue("X0", "mut")
	cp.Current().ReadSet[0] = "Z"
	if c.Result().Value("X0") != "orig" || c.Current().ReadSet[0] != "X0" {
		t.Fatal("clone shares state")
	}
}

// TestCloneKeepsSentBuffer: a clone's sends leave the slice the original
// last handed out untouched, for clients and servers alike. That slice is
// the engine's until it copies it, and a snapshot may clone the process
// before then; a buffer the clone shared would be overwritten in place.
func TestCloneKeepsSentBuffer(t *testing.T) {
	c := NewCore("cX", Disjoint(2, 1), fake{})
	id := c.Invoke(model.NewReadOnly(model.TxnID{}, "X0", "X1"))
	c.Starting(1)
	c.Send("s0", &roundMsg{Msg{TID: id}})
	c.Send("s1", &roundMsg{Msg{TID: id}})
	c.Sent() // the buffer now has spare capacity
	c.Send("s0", &roundMsg{Msg{TID: id}})
	out := c.Sent()
	cp := c.CloneCore()
	cp.Send("s1", &roundMsg{Msg{TID: id}})
	cp.Send("s1", &roundMsg{Msg{TID: id}})
	if len(out) != 1 || out[0].To != "s0" || len(cp.Sent()) != 2 {
		t.Fatalf("client: original's sent %v after the clone's sends", out)
	}

	s := NewServerCore("s0", Disjoint(2, 1))
	s.Send("c0", &roundMsg{Msg{TID: id}})
	s.Send("c1", &roundMsg{Msg{TID: id}})
	s.Sent()
	s.Send("c0", &roundMsg{Msg{TID: id}})
	sout := s.Sent()
	scp := s.CloneServerCore()
	scp.Send("c1", &roundMsg{Msg{TID: id}})
	scp.Send("c1", &roundMsg{Msg{TID: id}})
	if len(sout) != 1 || sout[0].To != "c0" || len(scp.Sent()) != 2 {
		t.Fatalf("server: original's sent %v after the clone's sends", sout)
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
