package driver

import (
	"fmt"
	"testing"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/spanner"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestClosedLoopRunCompletes(t *testing.T) {
	rep, err := Run(cops.New(), Config{
		Clients: 4, Txns: 120, Mix: workload.ReadHeavy(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Issued != 120 {
		t.Fatalf("issued = %d, want 120", rep.Issued)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("incomplete = %d, want 0", rep.Incomplete)
	}
	if rep.Committed+rep.Rejected != rep.Issued {
		t.Fatalf("committed %d + rejected %d != issued %d", rep.Committed, rep.Rejected, rep.Issued)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %f", rep.Throughput)
	}
	if rep.Latency.N == 0 || rep.Latency.P50 <= 0 {
		t.Fatalf("latency summary empty: %+v", rep.Latency)
	}
}

// TestConcurrencyActuallyOverlaps distinguishes the concurrent harness
// from the old lockstep loop: with many clients the same transaction count
// must span far less virtual time than with one client.
func TestConcurrencyActuallyOverlaps(t *testing.T) {
	run := func(clients int) sim.Time {
		rep, err := Run(cops.New(), Config{
			Clients: clients, Txns: 64, Mix: workload.ReadHeavy(), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Incomplete != 0 {
			t.Fatalf("clients=%d incomplete=%d", clients, rep.Incomplete)
		}
		return rep.Duration
	}
	solo := run(1)
	wide := run(16)
	if wide*4 > solo {
		t.Fatalf("16 clients not concurrent: solo took %dµs, 16-wide took %dµs (want ≥4x speedup)", solo, wide)
	}
}

// TestDeterminismSameSeed runs the same configuration twice and requires
// identical reports and identical histories, event for event.
func TestDeterminismSameSeed(t *testing.T) {
	run := func() *Report {
		rep, err := Run(cure.New(), Config{
			Clients: 8, Txns: 48, Mix: workload.Balanced(), Seed: 11, RecordHistory: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Committed != b.Committed || a.Rejected != b.Rejected || a.Events != b.Events ||
		a.Duration != b.Duration || a.Throughput != b.Throughput {
		t.Fatalf("reports differ:\n%v\n%v", a, b)
	}
	if a.Latency.Mean != b.Latency.Mean || a.Latency.P99 != b.Latency.P99 ||
		a.ROT.P50 != b.ROT.P50 || a.Write.P50 != b.Write.P50 {
		t.Fatalf("latency summaries differ:\n%+v\n%+v", a.Latency, b.Latency)
	}
	ha, hb := a.History.String(), b.History.String()
	if ha != hb {
		t.Fatalf("histories differ:\n%s\n---\n%s", ha, hb)
	}
	if a.History.Len() != a.Committed {
		t.Fatalf("history has %d records, committed %d", a.History.Len(), a.Committed)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed int64) *Report {
		rep, err := Run(cops.New(), Config{Clients: 4, Txns: 60, Mix: workload.ReadHeavy(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(2)
	if a.Duration == b.Duration && a.Latency.Mean == b.Latency.Mean && a.Events == b.Events {
		t.Fatal("different seeds produced identical runs — generator streams not seeded")
	}
}

// TestConcurrentHistoriesConsistent certifies a ≥8-client concurrent
// execution per representative protocol at its claimed consistency level
// (and causal consistency as the baseline) via history.Check.
func TestConcurrentHistoriesConsistent(t *testing.T) {
	for _, p := range []protocol.Protocol{cops.New(), cure.New(), spanner.New()} {
		t.Run(p.Name(), func(t *testing.T) {
			// A small object universe keeps the exact checker tractable:
			// more read/write conflicts mean more reads-from ordering
			// edges, which prune the serialization search. The checker's
			// cost is seed-sensitive (it is an exact exponential search);
			// runs are deterministic, so this exact configuration is known
			// cheap — retune the seed if the histories ever change.
			rep, err := Run(p, Config{
				Clients: 8, Txns: 44, ObjectsPerServer: 1,
				Mix: workload.Balanced(), Seed: 2, RecordHistory: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Incomplete != 0 {
				t.Fatalf("incomplete = %d", rep.Incomplete)
			}
			if rep.History.Len() < 40 {
				t.Fatalf("history too small: %d records", rep.History.Len())
			}
			if v := history.Check(rep.History, "causal"); !v.OK {
				t.Fatalf("concurrent execution not causal: %s\n%s", v.Reason, rep.History)
			}
			if lvl := p.Claims().Consistency; lvl != "causal" {
				if v := history.Check(rep.History, lvl); !v.OK {
					t.Fatalf("concurrent execution violates claimed %s: %s", lvl, v.Reason)
				}
			}
		})
	}
}

// TestPipelineDepthQueuesInvocations exercises per-client pipelining
// (Outstanding > 1) end to end.
func TestPipelineDepthQueuesInvocations(t *testing.T) {
	rep, err := Run(cops.New(), Config{
		Clients: 2, Pipeline: 4, Txns: 80, Mix: workload.ReadHeavy(), Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 || rep.Committed+rep.Rejected != 80 {
		t.Fatalf("pipelined run broken: %+v", rep)
	}
}

// TestLoadModeMemoryFlat ensures a load run leaves no trace events or
// payload registry behind.
func TestLoadModeMemoryFlat(t *testing.T) {
	d := protocol.Deploy(cops.New(), protocol.Config{Servers: 2, ObjectsPerServer: 2, Clients: 4, Seed: 21})
	d.Kernel.SetTraceCap(-1)
	d.Kernel.SetPayloadRetention(false)
	if err := d.InitAll(400_000); err != nil {
		t.Fatal(err)
	}
	rep, err := RunOn(d, Config{Clients: 4, Txns: 200, Mix: workload.ReadHeavy(), Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("incomplete = %d", rep.Incomplete)
	}
	if got := d.Kernel.Trace().Len(); got != 0 {
		t.Fatalf("load run retained %d trace events", got)
	}
	if d.Kernel.PayloadOf(1) != nil {
		t.Fatal("load run retained payloads")
	}
}

func TestRunOnRejectsOversizedClientCount(t *testing.T) {
	d := protocol.Deploy(cops.New(), protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 1})
	if err := d.InitAll(400_000); err != nil {
		t.Fatal(err)
	}
	if _, err := RunOn(d, Config{Clients: 8, Txns: 8}); err == nil {
		t.Fatal("expected error for more driver clients than deployed")
	}
}

func ExampleRun() {
	rep, err := Run(cops.New(), Config{Clients: 4, Txns: 40, Mix: workload.ReadHeavy(), Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Committed == 40, rep.Incomplete)
	// Output: true 0
}
