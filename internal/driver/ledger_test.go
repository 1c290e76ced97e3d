package driver

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
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

// cost is what a ledger cell costs the host: kernel events, mallocs and
// bytes allocated per event, and the heap its deployment holds, in KB.
type cost struct{ events, mallocs, bytes, retainedKB float64 }

// hostCosts is the ledger, as measured: a count off its entry by more than
// ledgerSlack fails, so every gain or loss shows in the diff that makes it.
var hostCosts = map[string]cost{
	"reads/cops": {164924, 1.418, 97.5, 571}, "reads/cure": {275734, 1.226, 80.7, 746}, "reads/spanner": {209550, 1.185, 76.7, 614},
	"reads/gentlerain": {520864, 0.789, 42.3, 468}, "reads/ramp": {176484, 1.418, 96.5, 716},
	"writes/cops": {131176, 1.924, 169.8, 8659}, "writes/cure": {422676, 1.249, 80.4, 6327}, "writes/spanner": {260855, 1.363, 92.8, 5506},
	"linear/contrarian/2k": {20124, 1.273, 88.4, 279}, "linear/contrarian/8k": {81220, 1.232, 86.7, 977},
	"linear/cops/2k": {13076, 1.750, 129.1, 438}, "linear/cops/8k": {52524, 1.684, 126.7, 1598},
	"linear/copssnow/2k": {24624, 3.252, 639.9, 4150}, "linear/copssnow/8k": {99472, 3.312, 692.5, 18127},
	"linear/cure/2k": {36038, 1.283, 78.9, 582}, "linear/cure/8k": {143206, 1.252, 77.5, 2090},
	"linear/eiger/2k": {29856, 1.473, 92.9, 541}, "linear/eiger/8k": {118088, 1.471, 92.1, 1958},
	"linear/eigerps/2k": {189188, 0.618, 16.8, 753}, "linear/eigerps/8k": {742620, 0.611, 16.3, 2545},
	"linear/fatcops/2k": {16196, 4.633, 286.8, 2424}, "linear/fatcops/8k": {64572, 5.244, 289.5, 9344},
	"linear/gentlerain/2k": {29048, 0.974, 62.6, 286}, "linear/gentlerain/8k": {116752, 0.942, 61.1, 985},
	"linear/naivefast/2k": {16196, 1.575, 123.3, 523}, "linear/naivefast/8k": {64572, 1.526, 122.3, 1941},
	"linear/orbe/2k": {23090, 1.269, 81.8, 319}, "linear/orbe/8k": {92438, 1.230, 80.2, 1107},
	"linear/ramp/2k": {23532, 1.652, 105.6, 608}, "linear/ramp/8k": {93376, 1.613, 104.8, 2257},
	"linear/spanner/2k": {26159, 1.308, 87.2, 531}, "linear/spanner/8k": {103847, 1.274, 86.2, 1950},
	"linear/twopcfast/2k": {23404, 1.435, 95.7, 525}, "linear/twopcfast/8k": {92824, 1.398, 94.8, 1942},
	"linear/wren/2k": {38018, 1.091, 70.7, 575}, "linear/wren/8k": {151366, 1.060, 68.5, 1994},
	"copssnow64/2k": {33992, 3.130, 1278.8, 11413}, "copssnow64/8k": {155932, 3.815, 2557.2, 109729},
}

// ledgerSlack is the drift a count may show before its entry must change.
const ledgerSlack = 0.03

// raced is a -race build. Its instrumentation allocates more (fatcops
// +29% bytes/event, eigerps +22%), so there only events and bounds hold.
var raced = strings.Contains(fmt.Sprint(debug.ReadBuildInfo()), "-race=true")

// ledgerCell is one ledger row. gate bounds its mallocs per event; ratio,
// if set, its bytes/event over those of its base row.
type ledgerCell struct {
	name, base  string
	p           protocol.Protocol
	cfg         Config
	gate, ratio float64
}

// TestLoadAllocsPerEvent holds the load path on the cells the paper is
// about to their ledger entries and mallocs/event bounds: cops, cure and
// spanner read-heavy, where nearly every transaction is a two-object ROT
// (gentlerain and ramp join for their folds of the ROT's replies), and
// balanced over a 64-object shard, where half are writes through prepare
// and commit (cure, spanner) or single-object writes (cops). A step that
// allocates its own send slice, result map or reply map again, a write
// that copies its vectors per message, or an engine that allocates every
// message envelope again, lands above the bound.
func TestLoadAllocsPerEvent(t *testing.T) {
	reads := Config{Clients: 64, Txns: 20_000, Mix: workload.ReadHeavy(), Seed: 42, Servers: 8}
	writes := Config{Clients: 64, Txns: 20_000, Mix: workload.Balanced(), Seed: 42, Servers: 8, ObjectsPerServer: 64}
	var cells []ledgerCell
	for _, p := range []protocol.Protocol{cops.New(), cure.New(), spanner.New(), gentlerain.New(), ramp.New()} {
		cells = append(cells, ledgerCell{name: "reads/" + p.Name(), p: p, cfg: reads, gate: 1.5})
	}
	for _, p := range []protocol.Protocol{cops.New(), cure.New(), spanner.New()} {
		cells = append(cells, ledgerCell{name: "writes/" + p.Name(), p: p, cfg: writes, gate: 2.0})
	}
	checkLedger(t, cells)
}

// TestHostCostLinearInRun holds every model at 2k and 8k txns to its
// ledger entries, and bytes/event at 8k to 1.3× those at 2k: a model whose
// state grows with every txn it has served (copssnow once kept every ROT's
// reader record and copied all of them into each write) allocates more per
// event the longer it runs. copssnow at the benchmark's 64 clients is
// pinned too; its growth is the known gap.
func TestHostCostLinearInRun(t *testing.T) {
	var cells []ledgerCell
	pair := func(name string, p protocol.Protocol, cfg Config, ratio float64) {
		short, long := cfg, cfg
		short.Txns, long.Txns = 2_000, 8_000
		cells = append(cells, ledgerCell{name: name + "/2k", p: p, cfg: short},
			ledgerCell{name: name + "/8k", base: name + "/2k", p: p, cfg: long, ratio: ratio})
	}
	for _, p := range []protocol.Protocol{
		contrarian.New(), cops.New(), copssnow.New(), cure.New(), eiger.New(), eigerps.New(), fatcops.New(),
		gentlerain.New(), naivefast.New(), orbe.New(), ramp.New(), spanner.New(), twopcfast.New(), wren.New(),
	} {
		pair("linear/"+p.Name(), p, Config{Clients: 16, Mix: workload.Balanced(), Seed: 42, Servers: 4}, 1.3)
	}
	// The known gap (ROADMAP, Known gaps): pinned, but under no ratio bound.
	pair("copssnow64", copssnow.New(), Config{Clients: 64, Mix: workload.Balanced(), Seed: 42, Servers: 8}, 0)
	checkLedger(t, cells)
}

// checkLedger measures each cell and holds it to its hostCosts entry and
// its bounds.
func checkLedger(t *testing.T, cells []ledgerCell) {
	got := map[string]cost{}
	for _, c := range cells {
		g := c.measure(t)
		got[c.name] = g
		row := fmt.Sprintf("%q: {%.0f, %.3f, %.1f, %.0f},", c.name, g.events, g.mallocs, g.bytes, g.retainedKB)
		switch want, ok := hostCosts[c.name]; {
		case !ok || g.events != want.events:
			t.Errorf("%s: %.0f events, the ledger says %.0f; the entry now reads\n\t%s", c.name, g.events, want.events, row)
		case raced:
		default:
			is, was := [3]float64{g.mallocs, g.bytes, g.retainedKB}, [3]float64{want.mallocs, want.bytes, want.retainedKB}
			for i, what := range []string{"mallocs/event", "bytes/event", "retained KB"} {
				if d := is[i]/was[i] - 1; math.Abs(d) > ledgerSlack {
					t.Errorf("%s: %s %.3f, the ledger says %.3f (%+.1f%%); the entry now reads\n\t%s", c.name, what, is[i], was[i], 100*d, row)
				}
			}
		}
		if c.gate > 0 && g.mallocs > c.gate {
			t.Errorf("%s: %.3f mallocs/event, bound %.2f", c.name, g.mallocs, c.gate)
		}
		if b := got[c.base]; c.ratio > 0 && g.bytes > c.ratio*b.bytes {
			t.Errorf("%s: %.0f bytes/event, %.2f× %s's; bound %.1f×", c.name, g.bytes, g.bytes/b.bytes, c.base, c.ratio)
		}
	}
}

// measure runs the cell, counting allocation around deploy and RunOn. Two
// GCs first empty the sync.Pool caches; retained is then the live heap with
// the deployment held less that once it is dropped.
func (c ledgerCell) measure(t *testing.T) cost {
	var before, after, held, freed runtime.MemStats
	runtime.GC()
	runtime.GC()
	c.cfg.defaults()
	runtime.ReadMemStats(&before)
	d, err := deploy(c.p, c.cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	rep, err := RunOn(d, c.cfg)
	runtime.ReadMemStats(&after)
	if err != nil || rep.Incomplete != 0 {
		t.Fatalf("%s: %v, report %v", c.name, err, rep)
	}
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(d)
	runtime.GC()
	runtime.ReadMemStats(&freed)
	n := float64(rep.Events)
	return cost{n, float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n,
		float64(held.HeapAlloc-freed.HeapAlloc) / 1024}
}
