package core

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/workload"
)

// TestThroughputCertifyRideAlong: a certified throughput cell reports
// the agreed verdict with both wall-clocks, and a violator cell pins the
// first offending commit.
func TestThroughputCertifyRideAlong(t *testing.T) {
	clean, err := MeasureThroughputWith(ByName("cops"), driver.Config{
		Clients: 8, Txns: 200, Mix: workload.Balanced(), Seed: 2, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Cert.OK || clean.Cert.Level != "causal" || clean.Cert.Txns != 200 {
		t.Fatalf("cops certification malformed: %+v", clean.Cert)
	}
	if clean.Cert.FirstViolation != -1 {
		t.Fatalf("clean cell pins a first violation: %+v", clean.Cert)
	}

	bad, err := MeasureThroughputWith(ByName("naivefast"), driver.Config{
		Clients: 8, Txns: 96, Mix: workload.Balanced(), Seed: 2, ObjectsPerServer: 1, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Cert.OK {
		t.Fatal("naivefast certified clean")
	}
	if bad.Cert.FirstViolation < 0 || bad.Cert.FirstViolation >= bad.Committed {
		t.Fatalf("violator cell must pin the first offending commit: %+v", bad.Cert)
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
	rep, err := MeasureThroughputWith(ByName("cops"), driver.Config{
		Clients: 8, Txns: history.MaxTxns + 64, Mix: workload.ReadHeavy(), Seed: 5, Servers: 4, ObjectsPerServer: 8, Certify: true})
	if err != nil {
		t.Fatalf("certified cell past the ceiling errored: %v", err)
	}
	if !rep.Cert.OK || rep.Cert.Txns != history.MaxTxns+64 {
		t.Fatalf("past-ceiling certification malformed: %+v", rep.Cert)
	}
	if rep.Cert.IncrementalWall <= 0 {
		t.Fatalf("ride-along session reported no wall-clock: %+v", rep.Cert)
	}
	if rep.Cert.BatchWall != 0 {
		t.Fatalf("batch cross-check ran past the ceiling (wall %v)", rep.Cert.BatchWall)
	}
}

// TestThroughputStaleness: the staleness probe wiring reaches the core
// report and stays deterministic.
func TestThroughputStaleness(t *testing.T) {
	rep, err := MeasureThroughputWith(ByName("cops"), driver.Config{
		Clients: 8, Txns: 200, Mix: workload.Balanced(), Seed: 5, ProbeStaleness: true})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Staleness
	if st == nil || st.Probes == 0 {
		t.Fatalf("staleness tallies missing: %+v", st)
	}
	again, err := MeasureThroughputWith(ByName("cops"), driver.Config{
		Clients: 8, Txns: 200, Mix: workload.Balanced(), Seed: 5, ProbeStaleness: true})
	if err != nil {
		t.Fatal(err)
	}
	if *again.Staleness != *st {
		t.Fatalf("staleness tallies nondeterministic: %+v vs %+v", st, again.Staleness)
	}
}

// TestLoadCurveCertify: with CurveOptions.Certify every open-loop point
// carries its own ride-along verdict, so certification no longer caps
// the curve's transaction count to a reduced batch window.
func TestLoadCurveCertify(t *testing.T) {
	curve, err := MeasureLoadCurve(ByName("cure"), workload.Balanced(), 4, CurveOptions{
		Clients: 4, Txns: 120, Fractions: []float64{0.25, 0.9}, Certify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(curve.Points))
	}
	for _, pt := range curve.Points {
		if pt.Cert.Level != "causal" || !pt.Cert.OK || pt.Cert.Txns != pt.Committed {
			t.Fatalf("curve point certification malformed: %+v", pt.Cert)
		}
	}
}
