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

// TestMeasureLoadCurveKneeRefinement: with RefineKnee the sweep bisects
// the queueing/service crossover with longer-window points instead of
// quantizing the knee to the swept fractions. The swept points stay
// byte-identical to an unrefined sweep, the refinement points ride
// behind them marked Refined, and the refined knee lands strictly
// inside the coarse bracket — deterministically.
func TestMeasureLoadCurveKneeRefinement(t *testing.T) {
	opt := CurveOptions{
		Clients: 4, Txns: 120, Fractions: []float64{0.1, 0.5, 1.2},
	}
	base, err := MeasureLoadCurve(cops.New(), workload.ReadHeavy(), 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	ropt := opt
	ropt.RefineKnee = true
	refined, err := MeasureLoadCurve(cops.New(), workload.ReadHeavy(), 5, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined.Points) <= len(base.Points) {
		t.Fatalf("refinement added no points: %d vs %d", len(refined.Points), len(base.Points))
	}
	for i, pt := range base.Points {
		if refined.Points[i].Refined {
			t.Fatalf("swept point %d marked refined", i)
		}
		if refined.Points[i].OfferedRate != pt.OfferedRate || refined.Points[i].Committed != pt.Committed {
			t.Fatalf("refinement perturbed swept point %d: %+v vs %+v", i, refined.Points[i], pt)
		}
	}
	// Coarse bracket: the swept knee and the lowest swept point past it.
	hi := 0.0
	for _, pt := range base.Points {
		if pt.QueueDelay.P50 > pt.Service.P50 && (hi == 0 || pt.OfferedRate < hi) {
			hi = pt.OfferedRate
		}
	}
	if hi == 0 {
		t.Fatal("no swept point past the knee; refinement untestable at this config")
	}
	for _, pt := range refined.Points[len(base.Points):] {
		if !pt.Refined {
			t.Fatal("bisection point not marked Refined")
		}
		if pt.Committed != 2*opt.Txns {
			t.Fatalf("refinement point ran %d txns, want the longer window %d", pt.Committed, 2*opt.Txns)
		}
		if pt.OfferedRate <= base.Knee || pt.OfferedRate >= hi {
			t.Fatalf("bisection point %.0f outside the coarse bracket (%.0f, %.0f)", pt.OfferedRate, base.Knee, hi)
		}
	}
	if refined.Knee < base.Knee || refined.Knee >= hi {
		t.Fatalf("refined knee %.0f outside [%.0f, %.0f)", refined.Knee, base.Knee, hi)
	}
	again, err := MeasureLoadCurve(cops.New(), workload.ReadHeavy(), 5, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Knee != refined.Knee || len(again.Points) != len(refined.Points) {
		t.Fatalf("refinement nondeterministic: knee %.2f/%.2f points %d/%d",
			refined.Knee, again.Knee, len(refined.Points), len(again.Points))
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
