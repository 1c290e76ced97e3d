package ptest

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// holds runs a closed-loop cell of p as a sweep does, plain and then as
// its watched twin, and returns the twin's first breach.
func holds(t *testing.T, p protocol.Protocol, nem *driver.Nemesis) error {
	t.Helper()
	cfg := driver.Config{
		Clients: 8, Txns: 96, Mix: workload.Balanced(), Seed: 11,
		Servers: 2, ObjectsPerServer: 1, Nemesis: nem, RecordHistory: true,
	}
	rep, err := driver.Run(p, cfg)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	return twin(p, cfg, rep)
}

// wantBreach fails unless err is a breach of contract whose text holds
// want.
func wantBreach(t *testing.T, err error, contract, want string) {
	t.Helper()
	var b *breach
	if !errors.As(err, &b) || b.contract != contract || !strings.Contains(b.err.Error(), want) {
		t.Fatalf("got %v, want a %s breach saying %q", err, contract, want)
	}
}

// sharing deploys p with every server's Ready reading a counter that
// every client step bumps: readiness that changes while the server
// itself does nothing.
type sharing struct {
	protocol.Protocol
	steps *int
}

type sharingServer struct {
	sim.Process
	steps *int
}

func (s sharingServer) Ready() bool        { return s.Process.Ready() || *s.steps%16 == 1 }
func (s sharingServer) Clone() sim.Process { return sharingServer{s.Process.Clone(), s.steps} }

type sharingClient struct {
	protocol.Client
	steps *int
}

func (c sharingClient) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	*c.steps++
	return c.Client.Step(now, inbox)
}
func (c sharingClient) Clone() sim.Process {
	return sharingClient{c.Client.Clone().(protocol.Client), c.steps}
}

func (p sharing) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return sharingServer{p.Protocol.NewServer(id, pl), p.steps}
}

func (p sharing) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return sharingClient{p.Protocol.NewClient(id, pl), p.steps}
}

// TestReadinessIsStateCatchesSharedState shows the check has teeth: the
// plain model passes it, and the same model with a server Ready that
// reads another process's counter fails it.
func TestReadinessIsStateCatchesSharedState(t *testing.T) {
	if err := holds(t, cops.New(), nil); err != nil {
		t.Fatalf("plain cops: %v", err)
	}
	wantBreach(t, holds(t, sharing{cops.New(), new(int)}, nil), "ReadinessIsState", "readiness changed")
}

// finishingInInvoke deploys p with workload client c0 completing every
// invocation inside Invoke, as a rejection, without ever stepping it.
type finishingInInvoke struct{ protocol.Protocol }

type invokeFinisher struct {
	protocol.Client
	seq  int
	done []*model.Result
}

func (c *invokeFinisher) Invoke(t *model.Txn) model.TxnID {
	c.seq++
	t.ID = model.TxnID{Client: string(c.ID()), Seq: c.seq}
	c.done = append(c.done, &model.Result{Txn: t, Err: "finished inside Invoke"})
	return t.ID
}

func (c *invokeFinisher) TakeFinished(dst []*model.Result) []*model.Result {
	dst = append(c.Client.TakeFinished(dst), c.done...)
	c.done = c.done[:0]
	return dst
}

func (c *invokeFinisher) Clone() sim.Process {
	return &invokeFinisher{c.Client.Clone().(protocol.Client), c.seq, slices.Clone(c.done)}
}

func (p finishingInInvoke) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	if id != "c0" {
		return p.Protocol.NewClient(id, pl)
	}
	return &invokeFinisher{Client: p.Protocol.NewClient(id, pl)}
}

// TestReadinessCatchesFinishInInvoke: a client whose results appear
// outside Step fails the check — the driver takes only from clients that
// stepped.
func TestReadinessCatchesFinishInInvoke(t *testing.T) {
	wantBreach(t, holds(t, finishingInInvoke{cops.New()}, nil), "ReadinessIsState", "no step since the previous call")
}

// parking deploys p with every server answering each inbox one step
// late: it keeps the envelopes Step was handed and hands them on at its
// next step.
type parking struct{ protocol.Protocol }

type parkingServer struct {
	sim.Process
	parked []*sim.Message
}

func (s *parkingServer) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	late := s.parked
	s.parked = slices.Clone(inbox)
	return s.Process.Step(now, late)
}

func (s *parkingServer) Ready() bool { return s.Process.Ready() || len(s.parked) > 0 }

func (s *parkingServer) WakeAt(now sim.Time) (sim.Time, bool) {
	if len(s.parked) > 0 {
		return now, true
	}
	return wakeAt(s.Process, now)
}

func (s *parkingServer) Clone() sim.Process {
	return &parkingServer{s.Process.Clone(), slices.Clone(s.parked)}
}

func (s *parkingServer) ShardStore() *store.Store {
	return s.Process.(protocol.StoreCarrier).ShardStore()
}

func (p parking) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return &parkingServer{Process: p.Protocol.NewServer(id, pl)}
}

// TestInboxNotRetainedCatchesParkedEnvelopes: a server that keeps its
// envelopes past Step fails the check, fault-free and through a replica
// replacement.
func TestInboxNotRetainedCatchesParkedEnvelopes(t *testing.T) {
	replace := &driver.Nemesis{Replaces: 1, Start: 4_000, Period: 20_000}
	for _, nem := range []*driver.Nemesis{nil, replace} {
		if err := holds(t, cops.New(), nem); err != nil {
			t.Fatalf("plain cops (nemesis %v): %v", nem, err)
		}
		wantBreach(t, holds(t, parking{cops.New()}, nem), "InboxNotRetained", "overwritten after Step")
	}
}

// doubleAcking deploys p with every server sending each write
// acknowledgement twice.
type doubleAcking struct{ protocol.Protocol }

type doubleAcker struct{ sim.Process }

func (s doubleAcker) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	var out []sim.Outbound
	for _, o := range s.Process.Step(now, inbox) {
		out = append(out, o)
		if o.Payload.Kind() == "write-ack" {
			out = append(out, o)
		}
	}
	return out
}

func (s doubleAcker) Clone() sim.Process { return doubleAcker{s.Process.Clone()} }

func (p doubleAcking) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return doubleAcker{p.Protocol.NewServer(id, pl)}
}

// TestRoundContractCatchesDoubleAck: a write acknowledged twice answers
// no open request the second time.
func TestRoundContractCatchesDoubleAck(t *testing.T) {
	wantBreach(t, holds(t, doubleAcking{cops.New()}, nil), "RoundContract", "answering no open request")
}
