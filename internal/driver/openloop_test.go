package driver

import (
	"testing"

	"repro/internal/protocols/cops"
	"repro/internal/workload"
)

func TestOpenLoopRunCompletes(t *testing.T) {
	rep, err := Run(cops.New(), Config{
		Clients: 4, Txns: 120, Mix: workload.ReadHeavy(), Seed: 5, Rate: 800,
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
	if rep.OfferedRate != 800 {
		t.Fatalf("offered rate = %f", rep.OfferedRate)
	}
	if rep.QueueDelay.N != rep.Committed || rep.Service.N != rep.Committed {
		t.Fatalf("queue/service samples = %d/%d, committed = %d",
			rep.QueueDelay.N, rep.Service.N, rep.Committed)
	}
	if rep.InFlight.N != 120 {
		t.Fatalf("in-flight samples = %d, want one per injection", rep.InFlight.N)
	}
	// End-to-end latency decomposes into queueing plus service.
	if rep.Latency.Mean < rep.Service.Mean {
		t.Fatalf("end-to-end mean %.1f below service mean %.1f", rep.Latency.Mean, rep.Service.Mean)
	}
	if rep.QueueDelay.Min < 0 {
		t.Fatalf("negative queueing delay: %+v", rep.QueueDelay)
	}
}

// TestOpenLoopLightLoadHasNoQueueing: at a rate far below capacity each
// transaction finds an idle client, so queueing delay is (near) zero and
// end-to-end latency matches service latency.
func TestOpenLoopLightLoadHasNoQueueing(t *testing.T) {
	rep, err := Run(cops.New(), Config{
		Clients: 4, Txns: 60, Mix: workload.ReadHeavy(), Seed: 9, Rate: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("incomplete = %d", rep.Incomplete)
	}
	if rep.QueueDelay.P50 > 10 {
		t.Fatalf("queueing at light load: p50 = %dµs", rep.QueueDelay.P50)
	}
	if rep.InFlight.Max > 4 {
		t.Fatalf("in-flight depth %d at 50 txn/s over 4 clients", rep.InFlight.Max)
	}
}

// TestOpenLoopOverloadQueues: past saturation the offered load outruns
// completions, so queueing delay dominates service latency and the
// in-flight depth grows with the run.
func TestOpenLoopOverloadQueues(t *testing.T) {
	rep, err := Run(cops.New(), Config{
		Clients: 2, Txns: 150, Mix: workload.ReadHeavy(), Seed: 13, Rate: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("incomplete = %d (drain did not finish)", rep.Incomplete)
	}
	if rep.QueueDelay.P50 <= rep.Service.P50 {
		t.Fatalf("overload but queueing p50 (%d) ≤ service p50 (%d)",
			rep.QueueDelay.P50, rep.Service.P50)
	}
	if rep.InFlight.Max < 10 {
		t.Fatalf("in-flight max = %d under 10× overload", rep.InFlight.Max)
	}
	// Achieved throughput saturates well below the offered rate.
	if rep.Throughput > rep.OfferedRate/2 {
		t.Fatalf("achieved %.0f txn/s at offered %.0f — not saturated?", rep.Throughput, rep.OfferedRate)
	}
}

func TestOpenLoopDeterministicArrivals(t *testing.T) {
	rep, err := Run(cops.New(), Config{
		Clients: 2, Txns: 40, Mix: workload.ReadHeavy(), Seed: 3,
		Rate: 500, DeterministicArrivals: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed == 0 || rep.Incomplete != 0 {
		t.Fatalf("run broken: %+v", rep)
	}
}
