package sim

import (
	"math"
	"testing"
)

func TestUniformArrivalsExactSpacing(t *testing.T) {
	a := NewUniformArrivals(1000, 500) // 1 per ms, starting at 500µs
	want := Time(1500)
	for i := 0; i < 5; i++ {
		if got := a.Next(); got != want {
			t.Fatalf("arrival %d = %d, want %d", i, got, want)
		}
		want += 1000
	}
}

func TestUniformArrivalsNonIntegerPeriodDoesNotDrift(t *testing.T) {
	a := NewUniformArrivals(3000, 0) // period 333.33µs
	var last Time
	for i := 1; i <= 3000; i++ {
		last = a.Next()
	}
	// 3000 arrivals at 3000/s must land at 1 virtual second, not at
	// 3000·333 = 999000µs (truncated-period drift).
	if last < 999_990 || last > 1_000_010 {
		t.Fatalf("3000th arrival at %dµs, want ~1e6", last)
	}
}

func TestPoissonArrivalsDeterministicAndSeedSensitive(t *testing.T) {
	seq := func(seed int64) []Time {
		a := NewPoissonArrivals(2000, seed, 0)
		out := make([]Time, 50)
		for i := range out {
			out[i] = a.Next()
		}
		return out
	}
	a1, a2, b := seq(7), seq(7), seq(8)
	same := true
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at arrival %d: %d vs %d", i, a1[i], a2[i])
		}
		if a1[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival sequences")
	}
	for i := 1; i < len(a1); i++ {
		if a1[i] < a1[i-1] {
			t.Fatalf("arrivals not monotone: %d then %d", a1[i-1], a1[i])
		}
	}
}

func TestPoissonArrivalsMeanRate(t *testing.T) {
	const rate = 1000.0
	a := NewPoissonArrivals(rate, 3, 0)
	const n = 20000
	var last Time
	for i := 0; i < n; i++ {
		last = a.Next()
	}
	// n arrivals should span about n/rate seconds: mean gap 1e6/rate µs.
	gotMean := float64(last) / n
	wantMean := 1e6 / rate
	if math.Abs(gotMean-wantMean) > 0.05*wantMean {
		t.Fatalf("mean inter-arrival = %.1fµs, want %.1f ± 5%%", gotMean, wantMean)
	}
}

// timerProc is Ready until its fire time: a minimal Waker. Without the
// time-leap a scheduler must spin StepCost-sized steps to reach fireAt.
type timerProc struct {
	id     ProcessID
	fireAt Time
	fired  bool
	steps  int
}

func (p *timerProc) ID() ProcessID { return p.id }
func (p *timerProc) Ready() bool   { return !p.fired }
func (p *timerProc) Clone() Process {
	c := *p
	return &c
}
func (p *timerProc) Step(now Time, inbox []*Message) []Outbound {
	p.steps++
	if now >= p.fireAt {
		p.fired = true
	}
	return nil
}
func (p *timerProc) WakeAt(now Time) (Time, bool) {
	if p.fired {
		return 0, false
	}
	if p.fireAt < now {
		return now, true
	}
	return p.fireAt, true
}

func TestNetworkTimeLeapSkipsIdleSpinning(t *testing.T) {
	k := NewKernel(1, nil)
	p := &timerProc{id: "t0", fireAt: 50_000}
	k.Add(p)
	n := Run(k, &Network{}, nil, 1000)
	if !p.fired {
		t.Fatalf("timer did not fire after %d events (now=%d)", n, k.Now())
	}
	if n > 3 {
		t.Fatalf("time-leap still spun: %d events to cross 50ms", n)
	}
	if k.Now() != p.fireAt {
		t.Fatalf("woke at %d, want exactly %d", k.Now(), p.fireAt)
	}
}

// TestTimeLeapWaiterBlockedOnDeliveryIsSkipped: a Waker reporting ok=false
// (progress needs a delivery) must not be stepped; the message delivery
// proceeds and unblocks it.
type blockedProc struct {
	id       ProcessID
	peer     ProcessID
	got      bool
	sentPing bool
	steps    int
}

func (p *blockedProc) ID() ProcessID { return p.id }
func (p *blockedProc) Ready() bool   { return !p.got }
func (p *blockedProc) Clone() Process {
	c := *p
	return &c
}
func (p *blockedProc) Step(now Time, inbox []*Message) []Outbound {
	p.steps++
	for range inbox {
		p.got = true
	}
	return nil
}
func (p *blockedProc) WakeAt(Time) (Time, bool) { return 0, false }

type oneShotSender struct {
	id   ProcessID
	peer ProcessID
	sent bool
}

func (p *oneShotSender) ID() ProcessID { return p.id }
func (p *oneShotSender) Ready() bool   { return !p.sent }
func (p *oneShotSender) Clone() Process {
	c := *p
	return &c
}
func (p *oneShotSender) Step(now Time, inbox []*Message) []Outbound {
	if p.sent {
		return nil
	}
	p.sent = true
	return []Outbound{{To: p.peer, Payload: &pingPayload{}}}
}

func TestTimeLeapWaiterBlockedOnDeliveryIsSkipped(t *testing.T) {
	k := NewKernel(1, ConstantLatency(800))
	b := &blockedProc{id: "b", peer: "a"}
	k.Add(b)
	k.Add(&oneShotSender{id: "a", peer: "b"})
	Run(k, &Network{}, nil, 1000)
	if !b.got {
		t.Fatal("blocked process never received the message")
	}
	// One step to consume the delivery; zero useless spins before it.
	if b.steps != 1 {
		t.Fatalf("blocked process stepped %d times, want exactly 1", b.steps)
	}
}

// TestRoundRobinLeapsOnlyDeclaredIdleTime: in load mode RoundRobin jumps
// the no-op stretch a Waker declares and accounts for it — same clock,
// same event count as the traced run that takes every step — and never
// leaps a Waker that is waiting on a delivery (useful == false).
func TestRoundRobinLeapsOnlyDeclaredIdleTime(t *testing.T) {
	run := func(traceCap int) (events int, k *Kernel) {
		k = NewKernel(1, nil)
		k.SetTraceCap(traceCap)
		k.Add(&timerProc{id: "t0", fireAt: 50_000})
		return Run(k, &RoundRobin{}, nil, 100_000), k
	}
	traced, tk := run(0)
	leapt, lk := run(-1)
	if traced != 50_000 || leapt != 1 {
		t.Fatalf("events: traced %d, load mode %d; want 50000 and 1", traced, leapt)
	}
	if tk.Now() != 50_000 || lk.Now() != 50_000 {
		t.Fatalf("clocks: traced %d, load mode %d; want 50000", tk.Now(), lk.Now())
	}
	if got := lk.Trace().Dropped; got != int64(tk.Trace().Len()) {
		t.Fatalf("load mode accounted %d events, the traced run recorded %d", got, tk.Trace().Len())
	}

	k := NewKernel(1, nil)
	k.SetTraceCap(-1)
	b := &blockedProc{id: "b"}
	k.Add(b)
	if n := Run(k, &RoundRobin{}, nil, 10); n != 10 || b.steps != 10 || k.Now() != 10*StepCost {
		t.Fatalf("delivery-bound Waker: %d events, %d steps, now %d; want 10 spins of StepCost", n, b.steps, k.Now())
	}
}
