package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// pingPayload is a trivial test payload.
type pingPayload struct {
	N int
}

func (p *pingPayload) Kind() string { return "ping" }

// pinger sends `count` pings to peer, one per local step, and counts pongs.
type pinger struct {
	id      ProcessID
	peer    ProcessID
	count   int
	sent    int
	pongs   int
	echo    bool // echo mode: respond to every ping with a ping back
	stepLog []int
}

func (p *pinger) ID() ProcessID { return p.id }
func (p *pinger) Ready() bool   { return !p.echo && p.sent < p.count }
func (p *pinger) Clone() Process {
	c := *p
	c.stepLog = append([]int(nil), p.stepLog...)
	return &c
}

func (p *pinger) Step(now Time, inbox []*Message) []Outbound {
	var out []Outbound
	for _, m := range inbox {
		pl := m.Payload.(*pingPayload)
		p.stepLog = append(p.stepLog, pl.N)
		if p.echo {
			out = append(out, Outbound{To: m.From, Payload: &pingPayload{N: pl.N}})
		} else {
			p.pongs++
		}
	}
	if !p.echo && p.sent < p.count {
		out = append(out, Outbound{To: p.peer, Payload: &pingPayload{N: p.sent}})
		p.sent++
	}
	return out
}

func newPingPair(seed int64, count int) (*Kernel, *pinger, *pinger) {
	k := NewKernel(seed, UniformLatency(10, 100))
	a := &pinger{id: "a", peer: "b", count: count}
	b := &pinger{id: "b", peer: "a", echo: true}
	k.Add(a)
	k.Add(b)
	return k, a, b
}

func TestDrainCompletesPingPong(t *testing.T) {
	k, a, _ := newPingPair(1, 5)
	n := Drain(k, 10_000)
	if n == 0 {
		t.Fatal("no events executed")
	}
	if !k.Quiescent() {
		t.Fatal("kernel not quiescent after drain")
	}
	if a.pongs != 5 {
		t.Fatalf("pongs = %d, want 5", a.pongs)
	}
}

func TestDeterminismSameSeedSameTrace(t *testing.T) {
	run := func(seed int64) []string {
		k, _, _ := newPingPair(seed, 8)
		Run(k, NewRandom(seed*7+3), nil, 10_000)
		var out []string
		for _, ev := range k.Trace().Events {
			out = append(out, ev.String())
		}
		return out
	}
	t1, t2 := run(42), run(42)
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d:\n%s\n%s", i, t1[i], t2[i])
		}
	}
}

func TestSnapshotIndependence(t *testing.T) {
	k, a, _ := newPingPair(3, 6)
	// Run partway.
	Run(k, &RoundRobin{}, func(k *Kernel) bool { return a.pongs >= 2 }, 10_000)
	snap := k.Snapshot()

	// Finish the original.
	Drain(k, 10_000)
	if a.pongs != 6 {
		t.Fatalf("original pongs = %d, want 6", a.pongs)
	}

	// The snapshot must still be at the midpoint and independently runnable.
	sa := snap.Process("a").(*pinger)
	if sa.pongs != 2 {
		t.Fatalf("snapshot pongs = %d, want 2", sa.pongs)
	}
	Drain(snap, 10_000)
	if sa.pongs != 6 {
		t.Fatalf("snapshot after drain pongs = %d, want 6", sa.pongs)
	}
	// And the original must not have been disturbed further.
	if a.pongs != 6 {
		t.Fatalf("original disturbed by snapshot run: pongs = %d", a.pongs)
	}
}

func TestSnapshotDeepCopiesInTransit(t *testing.T) {
	k, _, _ := newPingPair(5, 3)
	// Step a once to put a message in transit.
	k.StepProcess("a")
	if len(k.InTransit()) != 1 {
		t.Fatalf("in transit = %d, want 1", len(k.InTransit()))
	}
	snap := k.Snapshot()
	orig := k.InTransit()[0]
	cp := snap.InTransit()[0]
	if orig == cp {
		t.Fatal("snapshot shares message pointers")
	}
	// The envelope is per kernel: delivering in one leaves the other's
	// copy in transit and undelivered.
	k.Deliver(orig.ID)
	if orig.DeliveredAt == 0 || cp.DeliveredAt != 0 || len(snap.InTransit()) != 1 {
		t.Fatalf("delivery leaked into snapshot: orig at %d, copy at %d, %d in transit",
			orig.DeliveredAt, cp.DeliveredAt, len(snap.InTransit()))
	}
	// The payload is a value (immutable once sent — ptest's immutability
	// check holds every model to it), so buffers and the sent registry of
	// both kernels share the one instance.
	if cp.Payload != orig.Payload || snap.PayloadOf(cp.ID) != k.PayloadOf(orig.ID) {
		t.Fatal("snapshot copied a payload")
	}
}

func TestRestrictionFreezesProcesses(t *testing.T) {
	k := NewKernel(7, UniformLatency(1, 1))
	a := &pinger{id: "a", peer: "b", count: 4}
	b := &pinger{id: "b", peer: "a", echo: true}
	c := &pinger{id: "c", peer: "b", count: 4}
	k.Add(a)
	k.Add(b)
	k.Add(c)
	r := Restrict("a", "b")
	DrainRestricted(k, r, 10_000)
	if a.pongs != 4 {
		t.Fatalf("a pongs = %d, want 4", a.pongs)
	}
	if c.sent != 0 {
		t.Fatalf("frozen process c took steps: sent = %d", c.sent)
	}
	// c's messages (none yet) and steps must resume after lifting.
	Drain(k, 10_000)
	if c.pongs != 4 {
		t.Fatalf("c pongs after lifting = %d, want 4", c.pongs)
	}
}

func TestDeliverAdvancesTimeMonotonically(t *testing.T) {
	k, _, _ := newPingPair(11, 10)
	var last Time
	Run(k, &RoundRobin{}, func(k *Kernel) bool {
		if k.Now() < last {
			t.Fatalf("time went backwards: %d -> %d", last, k.Now())
		}
		last = k.Now()
		return false
	}, 10_000)
}

func TestLinkSeqAssignedPerLink(t *testing.T) {
	k, _, _ := newPingPair(13, 3)
	// a sends 3 pings; each should get link seq 1,2,3 on a->b.
	k.StepProcess("a")
	k.StepProcess("a")
	k.StepProcess("a")
	msgs := k.InTransitOn(Link{From: "a", To: "b"})
	if len(msgs) != 3 {
		t.Fatalf("in transit on a->b = %d, want 3", len(msgs))
	}
	for i, m := range msgs {
		if m.LinkSeq != int64(i+1) {
			t.Fatalf("msg %d has link seq %d, want %d", i, m.LinkSeq, i+1)
		}
	}
}

func TestScriptedReplayReproducesRun(t *testing.T) {
	// Record a random run, then replay its script on a fresh snapshot and
	// compare final states.
	k, _, _ := newPingPair(17, 5)
	base := k.Snapshot()
	Run(k, NewRandom(99), nil, 10_000)
	script := ScriptOf(k.Trace().Events)

	replSched := &Scripted{Steps: script}
	Run(base, replSched, nil, 100_000)
	if replSched.Err != nil {
		t.Fatalf("replay diverged: %v", replSched.Err)
	}
	pa := k.Process("a").(*pinger)
	ra := base.Process("a").(*pinger)
	if pa.pongs != ra.pongs || pa.sent != ra.sent {
		t.Fatalf("replay state mismatch: (%d,%d) vs (%d,%d)", pa.pongs, pa.sent, ra.pongs, ra.sent)
	}
	if fmt.Sprint(pa.stepLog) != fmt.Sprint(ra.stepLog) {
		t.Fatalf("replay step log mismatch: %v vs %v", pa.stepLog, ra.stepLog)
	}
}

func TestScriptedDivergenceDetected(t *testing.T) {
	k, _, _ := newPingPair(19, 2)
	sched := &Scripted{Steps: []ScriptStep{
		{Kind: ActDeliver, Link: Link{From: "a", To: "b"}, Seq: 42},
	}}
	Run(k, sched, nil, 100)
	if sched.Err == nil {
		t.Fatal("expected divergence error")
	}

	// A divergence past step 9 must report its step in full: twelve
	// process steps, then a delivery of a message that was never sent.
	k, _, _ = newPingPair(19, 2)
	late := &Scripted{}
	for i := 0; i < 12; i++ {
		late.Steps = append(late.Steps, ScriptStep{Kind: ActStep, Proc: "a"})
	}
	late.Steps = append(late.Steps, ScriptStep{Kind: ActDeliver, Link: Link{From: "a", To: "b"}, Seq: 42})
	Run(k, late, nil, 100)
	var div *DivergenceError
	if !errors.As(late.Err, &div) || div.Pos != 12 {
		t.Fatalf("divergence = %v, want a DivergenceError at step 12", late.Err)
	}
	if !strings.Contains(late.Err.Error(), "step 12:") {
		t.Fatalf("error %q does not name step 12", late.Err)
	}
}

func TestDropInTransit(t *testing.T) {
	k, _, _ := newPingPair(23, 1)
	k.StepProcess("a")
	msgs := k.InTransit()
	if len(msgs) != 1 {
		t.Fatalf("in transit = %d", len(msgs))
	}
	if !k.DropInTransit(msgs[0].ID) {
		t.Fatal("drop failed")
	}
	if len(k.InTransit()) != 0 {
		t.Fatal("message still in transit after drop")
	}
	if k.DropInTransit(msgs[0].ID) {
		t.Fatal("double drop succeeded")
	}
}

func TestRNGCloneProducesSameSequence(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		r.Uint64()
		c := r.Clone()
		for i := 0; i < 16; i++ {
			if r.Uint64() != c.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnInRange(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		bound := int(n%31) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformLatencyBounds(t *testing.T) {
	f := func(seed int64, a, b uint16) bool {
		lo, hi := Time(a%1000), Time(b%1000)
		m := UniformLatency(lo, hi)
		if hi < lo {
			lo, hi = hi, lo
		}
		r := NewRNG(seed)
		for i := 0; i < 20; i++ {
			d := m(Link{"x", "y"}, r)
			if d < lo || d > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate Add")
		}
	}()
	k := NewKernel(1, nil)
	k.Add(&pinger{id: "a"})
	k.Add(&pinger{id: "a"})
}

func TestDeliverUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown Deliver")
		}
	}()
	k := NewKernel(1, nil)
	k.Deliver(123)
}

func TestQuiescentInitially(t *testing.T) {
	k := NewKernel(1, nil)
	k.Add(&pinger{id: "b", echo: true})
	if !k.Quiescent() {
		t.Fatal("empty system with idle echo process should be quiescent")
	}
}

func TestTraceSince(t *testing.T) {
	k, _, _ := newPingPair(29, 2)
	mid := k.Trace().Len()
	k.StepProcess("a")
	evs := k.Trace().Since(mid)
	if len(evs) != 1 || evs[0].Kind != EvStep {
		t.Fatalf("Since returned %v", evs)
	}
	if got := k.Trace().Since(-5); len(got) != k.Trace().Len() {
		t.Fatal("Since with negative index should return whole trace")
	}
	if got := k.Trace().Since(10_000); len(got) != 0 {
		t.Fatal("Since beyond end should return empty")
	}
}
