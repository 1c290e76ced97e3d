package ptest

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/sim"
)

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
	if err := readinessViolation(cops.New(), Expect{}); err != nil {
		t.Fatalf("plain cops: %v", err)
	}
	if readinessViolation(sharing{cops.New(), new(int)}, Expect{}) == nil {
		t.Fatal("a server whose Ready reads a counter the clients bump passed the readiness check")
	}
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
	err := readinessViolation(finishingInInvoke{cops.New()}, Expect{})
	if err == nil || !strings.Contains(err.Error(), "no step since the previous call") {
		t.Fatalf("a client finishing inside Invoke: %v", err)
	}
}
