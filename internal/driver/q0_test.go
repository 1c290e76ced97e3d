package driver

import (
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/spanner"
)

// TestInitAllQ0Pinned pins the configuration a load cell starts from
// (8 servers × 64 objects × 64 clients, seed 42): the virtual clock, the
// event count, and — through the first message the first client sends —
// the next message ID and the next latency draw of the kernel RNG. Set-up
// may get cheaper; it may not end anywhere else.
func TestInitAllQ0Pinned(t *testing.T) {
	for _, tc := range []struct {
		p                         protocol.Protocol
		now, events, msgID, delay int64
	}{
		{spanner.New(), 3321795, 1261135, 2049, 1213},
		{cure.New(), 2275978, 12801, 5633, 659},
		{cops.New(), 1030336, 3585, 1025, 779},
	} {
		d, err := deploy(tc.p, Config{Servers: 8, ObjectsPerServer: 64, Clients: 64, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		k := d.Kernel
		now, events := int64(k.Now()), k.Trace().Dropped
		d.Invoke(d.Clients[0], model.NewReadOnly(model.TxnID{}, d.Place.Objects()[0]))
		sent := k.StepProcess(d.Clients[0])
		if len(sent) == 0 {
			t.Fatalf("%s: first client step sent nothing", tc.p.Name())
		}
		msgID, delay := sent[0].ID, int64(sent[0].ReadyAt-sent[0].SentAt)
		if now != tc.now || events != tc.events || msgID != tc.msgID || delay != tc.delay {
			t.Errorf("%s: Q0 = now %d, events %d, next message %d, next draw %d; pinned %d, %d, %d, %d",
				tc.p.Name(), now, events, msgID, delay, tc.now, tc.events, tc.msgID, tc.delay)
		}
	}
}
