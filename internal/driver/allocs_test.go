package driver

import (
	"runtime"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/spanner"
	"repro/internal/workload"
)

// TestLoadAllocsPerEvent gates what the load path allocates on the cells
// the paper is about: read-heavy cops, cure and spanner, where nearly
// every transaction is a two-object ROT. Mallocs are counted around
// driver.Run, deployment included, and divided by the run's events; a
// step that allocates its own send slice, result map or share arrays
// again lands well above the gate.
func TestLoadAllocsPerEvent(t *testing.T) {
	const gate = 2.0
	for _, p := range []protocol.Protocol{cops.New(), cure.New(), spanner.New()} {
		cfg := Config{
			Clients: 64, Txns: 20_000, Mix: workload.ReadHeavy(), Seed: 42, Servers: 8,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Run(p, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if rep.Committed != cfg.Txns {
			t.Fatalf("%s: %d of %d committed", p.Name(), rep.Committed, cfg.Txns)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(rep.Events)
		t.Logf("%s: %.3f allocs/event over %d events", p.Name(), per, rep.Events)
		if per > gate {
			t.Errorf("%s: %.3f allocs/event, gate %.1f", p.Name(), per, gate)
		}
	}
}
