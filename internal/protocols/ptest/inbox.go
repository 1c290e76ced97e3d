package ptest

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/workload"
)

type poisonPayload struct{}

func (poisonPayload) Kind() string { return "poison" }

// poison is what a scribbled process finds in its inbox slice once Step
// has returned, and what its delivered envelopes then read.
var poison = &sim.Message{From: "poison", To: "poison", LinkSeq: -1, Payload: poisonPayload{}, SentAt: -1, DeliveredAt: -1}

// stepThenScribble steps p, then overwrites the inbox slice and every
// envelope in it: all of an envelope that a model could read except ID
// and ReadyAt, the keys the kernel's index still orders it by.
func stepThenScribble(p sim.Process, now sim.Time, inbox []*sim.Message) []sim.Outbound {
	out := p.Step(now, inbox)
	for i, m := range inbox {
		m.From, m.To, m.LinkSeq, m.Payload = poison.From, poison.To, poison.LinkSeq, poison.Payload
		m.SentAt, m.DeliveredAt = poison.SentAt, poison.DeliveredAt
		inbox[i] = poison
	}
	return out
}

// wakeAt passes a Waker's declaration on. A process that declares nothing
// acts as soon as it is Ready, which is what (now, true) says.
func wakeAt(p sim.Process, now sim.Time) (sim.Time, bool) {
	if w, ok := p.(sim.Waker); ok {
		return w.WakeAt(now)
	}
	return now, true
}

// scribbled is a server that behaves as the one it wraps, except that the
// inbox slice handed to Step holds only poison afterwards.
type scribbled struct{ sim.Process }

func (s scribbled) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	return stepThenScribble(s.Process, now, inbox)
}
func (s scribbled) Clone() sim.Process                   { return scribbled{s.Process.Clone()} }
func (s scribbled) WakeAt(now sim.Time) (sim.Time, bool) { return wakeAt(s.Process, now) }

// scribbledClient is the same for a client.
type scribbledClient struct{ protocol.Client }

func (c scribbledClient) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	return stepThenScribble(c.Client, now, inbox)
}
func (c scribbledClient) Clone() sim.Process {
	return scribbledClient{c.Client.Clone().(protocol.Client)}
}
func (c scribbledClient) WakeAt(now sim.Time) (sim.Time, bool) { return wakeAt(c.Client, now) }

// scribbling deploys p with every process scribbled.
type scribbling struct{ protocol.Protocol }

func (p scribbling) NewServer(id sim.ProcessID, pl *protocol.Placement) sim.Process {
	return scribbled{p.Protocol.NewServer(id, pl)}
}

func (p scribbling) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	return scribbledClient{p.Protocol.NewClient(id, pl)}
}

// inboxNotRetained holds the model to Process.Step's contract — the inbox
// slice is the engine's, which empties and refills it in place, and a
// process keeps no envelope past Step — by running a closed-loop and an
// open-loop cell twice each: as deployed, and with every process's inbox
// and the envelopes in it overwritten the moment its Step returns. A
// model that kept the slice or an envelope (parked requests, a batch to
// answer later) reads poison where it left its messages, and the runs
// part ways.
func inboxNotRetained(t *testing.T, p protocol.Protocol, e Expect) {
	srv, ops := e.size()
	for _, rate := range []float64{0, loadRate} {
		run := func(p protocol.Protocol) string {
			rep, err := driver.Run(p, driver.Config{
				Clients: 8, Txns: 96, Mix: workload.Balanced(), Seed: 11,
				Servers: srv, ObjectsPerServer: ops, Rate: rate, RecordHistory: true,
			})
			if err != nil {
				t.Fatalf("rate %v: %v", rate, err)
			}
			return rep.String() + "\n" + rep.History.String()
		}
		if plain, scribbled := run(p), run(scribbling{p}); plain != scribbled {
			t.Errorf("rate %v: the run changes when inbox slices are overwritten after Step:\n%s\n--- scribbled ---\n%s", rate, plain, scribbled)
		}
	}
}
