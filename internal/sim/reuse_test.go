package sim

import (
	"reflect"
	"testing"
)

// reusingPinger is a pinger that returns one buffer from every Step, as
// the protocol cores do, and scribbles over what it returned last time as
// soon as it steps again. Process allows exactly this: the engine copies
// the returned slice before the process steps again.
type reusingPinger struct {
	*pinger
	buf []Outbound
}

func (p *reusingPinger) Step(now Time, inbox []*Message) []Outbound {
	for i := range p.buf {
		p.buf[i] = Outbound{To: p.peer, Payload: &pingPayload{N: -1}}
	}
	p.buf = append(p.buf[:0], p.pinger.Step(now, inbox)...)
	return p.buf
}

func (p *reusingPinger) Clone() Process {
	return &reusingPinger{pinger: p.pinger.Clone().(*pinger)}
}

// reuseOutcome is what a ping run leaves behind: any scribbled send the
// engine read late would show as a ping numbered -1 in some step log.
type reuseOutcome struct {
	Now     Time
	NextID  int64
	Pongs   []int
	StepLog [][]int
}

// reusePings builds two cross-pinging pairs, each pinger bursting count
// pings and each echo answering every ping of an inbox in one step (so
// steps return several sends), with every process wrapped in a
// reusingPinger when reuse is set.
func reusePings(count int, reuse bool) (*Kernel, []*pinger) {
	k := NewKernel(7, UniformLatency(10, 100))
	k.SetLatencyFloor(10)
	ps := []*pinger{
		{id: "a", peer: "b", count: count},
		{id: "b", peer: "a", echo: true},
		{id: "c", peer: "d", count: count},
		{id: "d", peer: "c", echo: true},
	}
	for _, p := range ps {
		if reuse {
			k.Add(&reusingPinger{pinger: p})
		} else {
			k.Add(p)
		}
	}
	return k, ps
}

func outcomeOf(k *Kernel, ps []*pinger) reuseOutcome {
	o := reuseOutcome{Now: k.Now(), NextID: k.nextID}
	for _, p := range ps {
		o.Pongs = append(o.Pongs, p.pongs)
		o.StepLog = append(o.StepLog, p.stepLog)
	}
	return o
}

// TestEngineCopiesSendsBeforeNextStep: processes that overwrite the slice
// they returned at the top of their next Step run exactly as processes
// that do not, under sim.Run and under the sharded runner at workers 1
// and 4.
func TestEngineCopiesSendsBeforeNextStep(t *testing.T) {
	const count = 30
	serial := func(reuse bool) reuseOutcome {
		k, ps := reusePings(count, reuse)
		Run(k, NewRandom(3), nil, 100_000)
		return outcomeOf(k, ps)
	}
	sharded := func(reuse bool, workers int) reuseOutcome {
		k, ps := reusePings(count, reuse)
		k.SetTraceCap(-1)
		shardOf := func(pid ProcessID) int { return int(pid[0] - 'a') }
		r, err := NewLookaheadRunner(k, shardOf, 4, workers)
		if err != nil {
			t.Fatal(err)
		}
		r.Run(nil, 100_000)
		return outcomeOf(k, ps)
	}
	want := serial(false)
	if want.Pongs[0] != count || want.Pongs[2] != count {
		t.Fatalf("plain serial run: pongs %v, want %d each", want.Pongs, count)
	}
	if got := serial(true); !reflect.DeepEqual(got, want) {
		t.Fatalf("sim.Run: reusing processes diverged:\n got  %+v\n want %+v", got, want)
	}
	for _, w := range []int{1, 4} {
		want := sharded(false, w)
		if got := sharded(true, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("sharded workers=%d: reusing processes diverged:\n got  %+v\n want %+v", w, got, want)
		}
	}
}
