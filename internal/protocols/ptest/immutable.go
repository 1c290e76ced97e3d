package ptest

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// sentWatch wraps a scheduler and, before every action, fingerprints the
// payloads the previous one sent (trace Sent refs → PayloadOf).
type sentWatch struct {
	sim.Scheduler
	seen   int              // trace events already scanned
	prints map[int64]string // message ID → %#v of its payload when sent
}

func (w *sentWatch) Next(k *sim.Kernel) (sim.Action, bool) {
	w.scan(k)
	return w.Scheduler.Next(k)
}

func (w *sentWatch) scan(k *sim.Kernel) {
	for _, ev := range k.Trace().Since(w.seen) {
		for _, ref := range ev.Sent {
			w.prints[ref.ID] = fmt.Sprintf("%#v", k.PayloadOf(ref.ID))
		}
	}
	w.seen = k.Trace().Len()
}

// payloadsImmutable holds the model to sim.Payload's contract — a payload
// is a value once sent — which is what lets a kernel, its snapshots and
// the sent registry share one instance. Three pipelined clients run mixed
// reads and writes under a fair and two random schedules; a snapshot forks
// the run midway and both kernels run on to quiescence under one schedule.
// Every payload must still print as it did when sent, on both kernels, and
// both must return the same results: a receiver writing into a received
// slice, or a sender still building on a sent one, shows as a changed
// fingerprint or a diverged fork.
func payloadsImmutable(t *testing.T, p protocol.Protocol, e Expect) {
	for name, mk := range map[string]func(phase int64) sim.Scheduler{
		"roundrobin": func(int64) sim.Scheduler { return &sim.RoundRobin{} },
		"random7":    func(phase int64) sim.Scheduler { return sim.NewRandom(7 + phase) },
		"random31":   func(phase int64) sim.Scheduler { return sim.NewRandom(31 + phase) },
	} {
		d := Deploy(t, p, e, 37)
		objs := d.Place.Objects()
		const perClient = 4
		ids := make([][]model.TxnID, len(d.Clients))
		for i, c := range d.Clients {
			for j := 0; j < perClient; j++ {
				txn := model.NewReadOnly(model.TxnID{}, objs[0], objs[1])
				if (i+j)%2 == 1 {
					tag := fmt.Sprintf("p%d.%d-", i, j)
					ws := []model.Write{{Object: objs[j%2], Value: model.Value(tag + "a")}}
					if p.Claims().MultiWriteTxn {
						ws = append(ws, model.Write{Object: objs[(j+1)%2], Value: model.Value(tag + "b")})
					}
					txn = model.NewWriteOnly(model.TxnID{}, ws...)
				}
				ids[i] = append(ids[i], d.Invoke(c, txn))
			}
		}

		// Fork once a client has finished something and messages are in
		// flight: the two kernels then hold the same payloads in their
		// buffers, their registries and whatever the processes kept.
		w := &sentWatch{Scheduler: mk(0), prints: make(map[int64]string)}
		first := d.Client(d.Clients[0])
		sim.Run(d.Kernel, w, func(k *sim.Kernel) bool {
			return first.Outstanding() < perClient && len(k.InTransit()) > 0
		}, 400_000)
		if first.Outstanding() == 0 {
			t.Fatalf("%s: the run ended before the fork", name)
		}
		fork := d.At(d.Kernel.Snapshot())
		fw := &sentWatch{seen: w.seen, prints: maps.Clone(w.prints)}

		for _, run := range []struct {
			d *protocol.Deployment
			w *sentWatch
		}{{d, w}, {fork, fw}} {
			run.w.Scheduler = mk(1)
			sim.Run(run.d.Kernel, run.w, nil, 400_000)
			run.w.scan(run.d.Kernel)
			for id, sent := range run.w.prints {
				if now := fmt.Sprintf("%#v", run.d.Kernel.PayloadOf(id)); now != sent {
					t.Errorf("%s: payload of message %d changed after it was sent:\n  sent %s\n  now  %s", name, id, sent, now)
				}
			}
		}
		for i, c := range d.Clients {
			for _, id := range ids[i] {
				a, b := d.Client(c).Finished(id), fork.Client(c).Finished(id)
				if a == nil || b == nil {
					t.Fatalf("%s: %v did not complete (original %v, fork %v)", name, id, a, b)
				}
				if fa, fb := fmt.Sprint(*a), fmt.Sprint(*b); fa != fb {
					t.Errorf("%s: %v diverged after the fork:\n  original %s\n  fork     %s", name, id, fa, fb)
				}
			}
		}
	}
}
