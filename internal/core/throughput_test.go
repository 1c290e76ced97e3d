package core

import (
	"testing"

	"repro/internal/workload"
)

func TestMeasureThroughputDeterministic(t *testing.T) {
	run := func() ThroughputReport {
		rep, err := MeasureThroughput(ByName("cops"), workload.ReadHeavy(), 8, 200, 7)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Committed != b.Committed || a.Throughput != b.Throughput ||
		a.Duration != b.Duration || a.Latency.P99 != b.Latency.P99 {
		t.Fatalf("nondeterministic throughput runs:\n%+v\n%+v", a, b)
	}
	if a.Committed != 200 || a.Incomplete != 0 {
		t.Fatalf("run did not complete: %+v", a)
	}
	if a.Throughput <= 0 {
		t.Fatalf("throughput = %f", a.Throughput)
	}
}

func TestThroughputScalesWithClients(t *testing.T) {
	narrow, err := MeasureThroughput(ByName("cops"), workload.ReadHeavy(), 1, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := MeasureThroughput(ByName("cops"), workload.ReadHeavy(), 16, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Throughput < 4*narrow.Throughput {
		t.Fatalf("throughput does not scale: 1 client %.1f txn/s, 16 clients %.1f txn/s",
			narrow.Throughput, wide.Throughput)
	}
}

func TestMeasureLatencyOnDriver(t *testing.T) {
	rep, err := MeasureLatency(ByName("copssnow"), workload.ReadHeavy(), 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 {
		t.Fatalf("incomplete = %d", rep.Incomplete)
	}
	if rep.ROT.N == 0 || rep.ROT.P50 <= 0 {
		t.Fatalf("no ROT latencies: %+v", rep.ROT)
	}
	// copssnow is the one-round system: exactly one read round per ROT.
	if rep.ROTRounds != 1 {
		t.Fatalf("copssnow rounds = %.2f, want 1", rep.ROTRounds)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput missing from latency report: %+v", rep)
	}
}
