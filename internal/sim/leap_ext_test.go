package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/spanner"
	"repro/internal/sim"
)

// TestInitLeapsCommitWait runs spanner's initializing transactions twice
// on 2 servers — in load mode, where RoundRobin leaps each commit-wait,
// and traced, where it takes every 1µs step — and requires the same
// configuration at the end (clock, in-transit set, every process's state)
// from at most 1% of the events.
func TestInitLeapsCommitWait(t *testing.T) {
	run := func(traceCap int) (int, *protocol.Deployment) {
		d := protocol.Deploy(spanner.New(), protocol.Config{Servers: 2, ObjectsPerServer: 2, Clients: 2, Seed: 9})
		d.Kernel.SetTraceCap(traceCap)
		events := 0
		for i, obj := range d.Place.Objects() {
			cl := d.Client(d.Inits[i])
			cl.Invoke(model.NewWriteOnly(model.TxnID{}, model.Write{Object: obj, Value: protocol.InitialValue(obj)}))
			events += sim.Run(d.Kernel, &sim.RoundRobin{}, func(*sim.Kernel) bool { return !cl.Busy() }, 400_000)
		}
		return events + sim.Drain(d.Kernel, 400_000), d
	}
	traced, td := run(0)
	leapt, ld := run(-1)
	if leapt*100 > traced {
		t.Fatalf("load mode executed %d events, traced %d: want ≤ 1%%", leapt, traced)
	}
	if td.Kernel.Now() != ld.Kernel.Now() {
		t.Fatalf("clocks differ: traced %d, load mode %d", td.Kernel.Now(), ld.Kernel.Now())
	}
	if got, want := ld.Kernel.Trace().Dropped, int64(td.Kernel.Trace().Len()); got != want {
		t.Fatalf("load mode accounted %d events, the traced run recorded %d", got, want)
	}
	if !reflect.DeepEqual(td.Kernel.InTransit(), ld.Kernel.InTransit()) {
		t.Fatalf("in-transit sets differ: traced %v, load mode %v", td.Kernel.InTransit(), ld.Kernel.InTransit())
	}
	for _, id := range td.Kernel.Processes() {
		if !reflect.DeepEqual(td.Kernel.Process(id), ld.Kernel.Process(id)) {
			t.Fatalf("process %s differs:\n traced    %+v\n load mode %+v", id, td.Kernel.Process(id), ld.Kernel.Process(id))
		}
	}
}
