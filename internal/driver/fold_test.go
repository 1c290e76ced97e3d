package driver

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/naivefast"
	"repro/internal/protocols/spanner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runClosedAtEnd is the closed loop as it was before results folded
// during the run, kept as the fold's reference: it only takes while the
// engine runs and drains once, at the end, with a single stable sort of
// every result by completion instant.
func runClosedAtEnd(r *run) (*Report, error) {
	d, cfg, rep := r.d, r.cfg, r.rep
	r.quota = make([]int, cfg.Clients)
	r.issued = make([]int, cfg.Clients)
	r.clientIdx = make(map[sim.ProcessID]int, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		r.quota[i] = cfg.Txns / cfg.Clients
		if i < cfg.Txns%cfg.Clients {
			r.quota[i]++
		}
		r.clientIdx[d.Clients[i]] = i
	}
	r.runner.SetRefill(r.refillClient)
	needRefill := func() bool {
		for i, cl := range r.cls {
			if r.issued[i] < r.quota[i] && cl.Outstanding() < cfg.Pipeline {
				return true
			}
		}
		return false
	}
	start := d.Kernel.Now()
	for {
		for i := range r.cls {
			r.refillClient(d.Clients[i], d.Kernel.Now())
		}
		n := r.engineRun(func(*sim.Kernel) bool { return needRefill() || r.probeDue() }, cfg.MaxEvents-rep.Events)
		rep.Events += n
		r.take()
		if n == 0 || rep.Events >= cfg.MaxEvents {
			break
		}
	}
	r.collect(drainAll)
	for _, n := range r.issued {
		rep.Issued += n
	}
	return r.finish(start)
}

// closedRun deploys p and runs cfg closed-loop through loop, returning
// the run too (for its backlog high-water mark).
func closedRun(t *testing.T, p protocol.Protocol, cfg Config, loop func(*run) (*Report, error)) (*run, *Report) {
	t.Helper()
	cfg.defaults()
	d, err := deploy(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := startRun(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loop(r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("%d transactions incomplete", rep.Incomplete)
	}
	rep.CertWall = 0
	return r, rep
}

// TestFoldMatchesCollectAtEnd is the fold's differential: draining
// between rounds below the runner's floor must feed history, session,
// recovery marks and probes exactly what one sort at the end of the run
// feeds them — the same records in the same order, hence the same report
// — fault-free and through a crash and a partition, where restarts and
// heals release held messages onto shards whose clocks lag.
func TestFoldMatchesCollectAtEnd(t *testing.T) {
	protos := map[string]func() protocol.Protocol{
		"cops":      func() protocol.Protocol { return cops.New() },
		"cure":      func() protocol.Protocol { return cure.New() },
		"spanner":   func() protocol.Protocol { return spanner.New() },
		"naivefast": func() protocol.Protocol { return naivefast.New() },
	}
	faults := &Nemesis{Crashes: 1, Partitions: 1, Start: 20_000, Period: 120_000, Duration: 10_000}
	for name, mk := range protos {
		for _, pipeline := range []int{1, 4} {
			for _, nem := range []*Nemesis{nil, faults} {
				for seed := int64(1); seed <= 4; seed++ {
					cfg := Config{
						Clients: 8, Txns: 300, Mix: workload.Balanced(), Seed: seed,
						Servers: 4, Pipeline: pipeline, Nemesis: nem,
						// Probe on odd seeds: a probing run folds at its
						// hand-backs, an un-probed one between rounds.
						ProbeStaleness: seed%2 == 1,
						Certify:        true, RecordHistory: true,
					}
					what := fmt.Sprintf("%s pipeline=%d faults=%v seed=%d", name, pipeline, nem != nil, seed)
					_, folded := closedRun(t, mk(), cfg, (*run).runClosed)
					_, atEnd := closedRun(t, mk(), cfg, runClosedAtEnd)
					got, want := folded.History.Records(), atEnd.History.Records()
					if len(got) != len(want) {
						t.Fatalf("%s: folded drain fed %d records, collect-at-end %d", what, len(got), len(want))
					}
					for i := range want {
						if got[i].ID != want[i].ID || got[i].Completed != want[i].Completed {
							t.Fatalf("%s: record %d is %s@%d folded, %s@%d collected at the end",
								what, i, got[i].ID, got[i].Completed, want[i].ID, want[i].Completed)
						}
					}
					if !reflect.DeepEqual(folded, atEnd) {
						t.Errorf("%s: reports differ:\nfolded %+v\nat end %+v", what, folded, atEnd)
					}
				}
			}
		}
	}
}

// TestFoldBoundsBacklog: on a saturated fault-free cell the results held
// past a drain stay a few rounds' worth, while the reference holds the
// whole run — a fold that silently never fires fails here, not in a
// memory profile.
func TestFoldBoundsBacklog(t *testing.T) {
	cfg := Config{Clients: 64, Txns: 20_000, Mix: workload.ReadHeavy(), Seed: 42, Servers: 8}
	r, folded := closedRun(t, cops.New(), cfg, (*run).runClosed)
	if r.backlog >= cfg.Txns/10 {
		t.Errorf("folded run held up to %d of %d results", r.backlog, cfg.Txns)
	}
	ref, atEnd := closedRun(t, cops.New(), cfg, runClosedAtEnd)
	if ref.backlog != cfg.Txns {
		t.Errorf("reference held up to %d results, want all %d", ref.backlog, cfg.Txns)
	}
	if !reflect.DeepEqual(folded, atEnd) {
		t.Errorf("reports differ:\nfolded %+v\nat end %+v", folded, atEnd)
	}
	t.Logf("backlog high-water mark: %d folded, %d collected at the end", r.backlog, ref.backlog)
}
