package driver

import (
	"runtime"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/contrarian"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/copssnow"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/eiger"
	"repro/internal/protocols/eigerps"
	"repro/internal/protocols/fatcops"
	"repro/internal/protocols/gentlerain"
	"repro/internal/protocols/naivefast"
	"repro/internal/protocols/orbe"
	"repro/internal/protocols/ramp"
	"repro/internal/protocols/spanner"
	"repro/internal/protocols/twopcfast"
	"repro/internal/protocols/wren"
	"repro/internal/workload"
)

// TestHostCostLinearInRun gates every model's host cost at linear in
// the run: the same cell at 2 000 and at 8 000 transactions must
// allocate about the same bytes per kernel event. A model whose per-run
// state grows with every transaction it has served (copssnow once kept
// every ROT's reader record and copied all of them into each write)
// allocates more per event the longer it runs, and fails here long
// before it exhausts a host's memory.
func TestHostCostLinearInRun(t *testing.T) {
	const growth = 1.3
	models := []protocol.Protocol{
		contrarian.New(), cops.New(), copssnow.New(), cure.New(),
		eiger.New(), eigerps.New(), fatcops.New(), gentlerain.New(),
		naivefast.New(), orbe.New(), ramp.New(), spanner.New(),
		twopcfast.New(), wren.New(),
	}
	perEvent := func(p protocol.Protocol, txns int) float64 {
		cfg := Config{Clients: 16, Txns: txns, Mix: workload.Balanced(), Seed: 42, Servers: 4}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Run(p, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s at %d txns: %v", p.Name(), txns, err)
		}
		if rep.Incomplete != 0 {
			t.Fatalf("%s at %d txns: %d incomplete", p.Name(), txns, rep.Incomplete)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(rep.Events)
	}
	for _, p := range models {
		small, large := perEvent(p, 2_000), perEvent(p, 8_000)
		t.Logf("%s: %.0f → %.0f bytes/event (%.2f×)", p.Name(), small, large, large/small)
		if large > growth*small {
			t.Errorf("%s: %.0f bytes/event at 2 000 txns, %.0f at 8 000 (%.2f×, gate %.1f×)",
				p.Name(), small, large, large/small, growth)
		}
	}
}
