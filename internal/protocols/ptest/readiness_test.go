package ptest

import (
	"testing"

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
