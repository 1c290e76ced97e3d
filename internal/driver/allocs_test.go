package driver

import (
	"runtime"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/gentlerain"
	"repro/internal/protocols/ramp"
	"repro/internal/protocols/spanner"
	"repro/internal/workload"
)

// TestLoadAllocsPerEvent gates what the load path allocates on the cells
// the paper is about: cops, cure and spanner read-heavy, where nearly
// every transaction is a two-object ROT, and balanced over a 64-object
// shard, where half are writes through prepare and commit (cure,
// spanner) or single-object writes (cops). gentlerain and ramp join the
// read-heavy cell for their folds of the ROT's replies. Mallocs are
// counted around driver.Run, deployment included, and divided by the
// run's events; a step that allocates its own send slice, result map,
// reply map or share arrays again, a write that copies its vectors per
// message, or an engine that allocates every message envelope again,
// lands above the gate.
func TestLoadAllocsPerEvent(t *testing.T) {
	paper := []protocol.Protocol{cops.New(), cure.New(), spanner.New()}
	cells := []struct {
		name  string
		gate  float64
		cfg   Config
		proto []protocol.Protocol
	}{
		{"reads", 1.5, Config{Clients: 64, Txns: 20_000, Mix: workload.ReadHeavy(), Seed: 42, Servers: 8},
			append(paper, gentlerain.New(), ramp.New())},
		{"writes", 2.0, Config{Clients: 64, Txns: 20_000, Mix: workload.Balanced(), Seed: 42, Servers: 8, ObjectsPerServer: 64}, paper},
	}
	for _, cell := range cells {
		for _, p := range cell.proto {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := Run(p, cell.cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name(), cell.name, err)
			}
			if rep.Committed != cell.cfg.Txns {
				t.Fatalf("%s %s: %d of %d committed", p.Name(), cell.name, rep.Committed, cell.cfg.Txns)
			}
			per := float64(after.Mallocs-before.Mallocs) / float64(rep.Events)
			t.Logf("%s %s: %.3f allocs/event over %d events", p.Name(), cell.name, per, rep.Events)
			if per > cell.gate {
				t.Errorf("%s %s: %.3f allocs/event, gate %.1f", p.Name(), cell.name, per, cell.gate)
			}
		}
	}
}
