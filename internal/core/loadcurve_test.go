package core

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/workload"
)

func TestMeasureLoadCurveShape(t *testing.T) {
	curve, err := MeasureLoadCurve(cops.New(), workload.ReadHeavy(), 5, CurveOptions{
		Clients: 4, Txns: 120, Fractions: []float64{0.1, 0.5, 1.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if curve.Saturated <= 0 {
		t.Fatalf("saturated = %f", curve.Saturated)
	}
	if len(curve.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(curve.Points))
	}
	light, heavy := curve.Points[0], curve.Points[2]
	// Light load: queueing is negligible. Past saturation: it dominates.
	if light.QueueDelay.P50 > light.Service.P50 {
		t.Fatalf("light load already queueing: queue p50 %d > service p50 %d",
			light.QueueDelay.P50, light.Service.P50)
	}
	if heavy.QueueDelay.P50 <= heavy.Service.P50 {
		t.Fatalf("past saturation but no queueing: queue p50 %d ≤ service p50 %d",
			heavy.QueueDelay.P50, heavy.Service.P50)
	}
	// End-to-end latency must grow monotonically enough to show the
	// curve's bend: the overloaded point is far above the light one.
	if heavy.Latency.P50 < 2*light.Latency.P50 {
		t.Fatalf("no latency knee: light p50 %d, overloaded p50 %d",
			light.Latency.P50, heavy.Latency.P50)
	}
	// The knee sits at or below the saturated rate and above zero here.
	if curve.Knee <= 0 {
		t.Fatal("knee not found despite an un-queued light-load point")
	}
	if curve.Knee >= heavy.OfferedRate {
		t.Fatalf("knee %.0f at or past the overloaded point %.0f", curve.Knee, heavy.OfferedRate)
	}
	// Achieved throughput tracks offered load below the knee.
	if light.Throughput < 0.5*light.OfferedRate {
		t.Fatalf("light load achieved %.0f of offered %.0f", light.Throughput, light.OfferedRate)
	}
}

// TestMeasureLoadCurveHonoursTopology: every open-loop point runs on the
// deployment the sweep names, not just the saturation estimate. (Points
// used to drop Topology: the 2site curve was anchored to the 2-site
// saturation and then measured on the uniform deployment.) Half of
// saturation is queue-free, so service p50 is the protocol's round trips:
// on 2site it cannot be below one cross-site round trip.
func TestMeasureLoadCurveHonoursTopology(t *testing.T) {
	point := func(topo *protocol.Topology) CurvePoint {
		curve, err := MeasureLoadCurve(cops.New(), workload.ReadHeavy(), 42, CurveOptions{
			Servers: 4, Clients: 8, Txns: 400, Fractions: []float64{0.5}, Topology: topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		return curve.Points[0]
	}
	topo, err := protocol.TopologyByName("2site")
	if err != nil {
		t.Fatal(err)
	}
	uniform, geo := point(nil), point(topo)
	if geo.Service.P50 <= uniform.Service.P50 || geo.Service.P50 < int64(2*topo.CrossLo) {
		t.Fatalf("2site point served at p50 %dµs (uniform %dµs, cross-site round trip ≥ %dµs): the point ran on the wrong deployment",
			geo.Service.P50, uniform.Service.P50, 2*topo.CrossLo)
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
		if pt.CertLevel != "causal" || pt.Cert == nil || !pt.Cert.OK || pt.Cert.Appended != pt.Committed {
			t.Fatalf("curve point certification malformed: %+v", pt.Cert)
		}
	}
}
