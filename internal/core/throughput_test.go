package core

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/workload"
)

func TestMeasureThroughputDeterministic(t *testing.T) {
	run := func() *driver.Report {
		rep, err := driver.Run(ByName("cops"), driver.Config{Clients: 8, Txns: 200, Mix: workload.ReadHeavy(), Seed: 7})
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
	narrow, err := driver.Run(ByName("cops"), driver.Config{Clients: 1, Txns: 150, Mix: workload.ReadHeavy(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := driver.Run(ByName("cops"), driver.Config{Clients: 16, Txns: 150, Mix: workload.ReadHeavy(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Throughput < 4*narrow.Throughput {
		t.Fatalf("throughput does not scale: 1 client %.1f txn/s, 16 clients %.1f txn/s",
			narrow.Throughput, wide.Throughput)
	}
}

// TestThroughputCertifyPastBatchCeiling: the old up-front refusal at
// history.MaxTxns is gone — a cell past the batch ceiling certifies via
// the streaming session, with the batch cross-check (and the recorded
// history backing it) skipped rather than refusing the run.
func TestThroughputCertifyPastBatchCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := driver.Run(ByName("cops"), driver.Config{
		Clients: 8, Txns: history.MaxTxns + 64, Mix: workload.ReadHeavy(), Seed: 5, Servers: 4, ObjectsPerServer: 8, Certify: true})
	if err != nil {
		t.Fatalf("certified cell past the ceiling errored: %v", err)
	}
	if !rep.Cert.OK || rep.Cert.Appended != history.MaxTxns+64 {
		t.Fatalf("past-ceiling certification malformed: %+v", rep.Cert)
	}
	if rep.CertWall <= 0 {
		t.Fatalf("ride-along session reported no wall-clock: %+v", rep.Cert)
	}
	if rep.CertBatchWall != 0 {
		t.Fatalf("batch cross-check ran past the ceiling (wall %v)", rep.CertBatchWall)
	}
}
