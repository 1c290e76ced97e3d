package core

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// CurvePoint is one offered-rate point of a latency–throughput curve: the
// driver's report of an open-loop run at a fixed fraction of the
// protocol's saturated throughput (OfferedRate is the rate offered,
// Throughput what actually committed; Latency is end-to-end, QueueDelay
// and Service its decomposition), plus what the driver does not know.
type CurvePoint struct {
	driver.Report
	Mix workload.Mix
	// Fraction of the saturated (closed-loop) throughput offered.
	Fraction float64
	// Refined marks a knee-bisection point (CurveOptions.RefineKnee):
	// it was not part of the swept fractions and ran with the longer
	// refinement window.
	Refined bool
	// Cert is this point's ride-along certification outcome (populated
	// when CurveOptions.Certify was set; shadows the embedded report's
	// session verdict): every open-loop point of the curve is certified
	// as it runs, same contract as the closed-loop grid.
	Cert Certification
}

// LoadCurve is a swept latency–throughput curve for one protocol × mix.
type LoadCurve struct {
	Protocol string
	Mix      workload.Mix
	// Saturated is the closed-loop throughput estimate the sweep is
	// anchored to (committed transactions per virtual second with every
	// client saturated).
	Saturated float64
	Points    []CurvePoint
	// Knee is the highest swept offered rate at which queueing delay has
	// not yet overtaken service time (p50 queueing ≤ p50 service): past
	// it the curve bends vertical — latency grows without buying
	// throughput, the regime the paper's lower bounds speak to. Zero
	// when even the lightest point is past the knee.
	Knee float64
}

// CurveOptions scales a load-curve sweep. The deployment fields mirror
// driver.Config flat rather than embedding it: the frozen cmd/perf tracer
// names them in a composite literal, which Go forbids for promoted
// fields. config is the one place they become a driver.Config.
type CurveOptions struct {
	Servers          int
	ObjectsPerServer int
	Replication      int
	// Clients receiving the open-loop arrivals round-robin (default 8).
	Clients int
	// Txns per curve point (default 400).
	Txns int
	// Fractions of the saturated throughput to sweep, ascending (default
	// 0.1, 0.25, 0.5, 0.75, 0.9, 1.1: light load to past saturation).
	Fractions []float64
	// Deterministic selects fixed-interval arrivals instead of Poisson.
	Deterministic bool
	Topology      *protocol.Topology
	// Certify certifies every curve point ride-along (driver.Config
	// semantics; the saturation estimate is never certified).
	Certify bool
	// RefineKnee bisects the knee after the fraction sweep: between the
	// highest swept rate still below the queueing/service crossover and
	// the lowest one past it, extra open-loop points run at the midpoint
	// rate until the bracket has collapsed (up to kneeRounds rounds).
	// Refinement points run 2×Txns transactions — near the crossover
	// queueing and service percentiles are comparable, so the short sweep
	// window quantizes the knee to the swept fractions and its p50s are
	// noisy exactly where the curve bends. Default off: the swept points
	// and their knee are byte-identical to an unrefined sweep; refined
	// points are appended after them, marked Refined, and the reported
	// knee is recomputed over all points.
	RefineKnee bool
	Workers    int
	Rebalance  bool
}

// config is the closed-loop saturation run of the sweep; every open-loop
// point derives from it, so the deployment cannot differ between them.
func (o CurveOptions) config(mix workload.Mix, seed int64) driver.Config {
	cfg := driver.Config{
		Clients: o.Clients, Txns: o.Txns, Mix: mix, Seed: seed,
		Servers: o.Servers, ObjectsPerServer: o.ObjectsPerServer, Replication: o.Replication,
		Topology: o.Topology, Workers: o.Workers, Rebalance: o.Rebalance,
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 400
	}
	return cfg
}

// kneeRounds bounds the knee bisection: each round halves the bracket,
// so four rounds pin the knee to ~6% of the swept gap.
const kneeRounds = 4

// MeasureLoadCurve sweeps offered load from light load to past saturation
// for one protocol and mix: it first estimates the saturated throughput
// with a closed-loop run, then drives one open-loop run per fraction of
// it, reporting queueing delay and latency percentiles per point and the
// knee of the resulting curve.
func MeasureLoadCurve(p protocol.Protocol, mix workload.Mix, seed int64, opt CurveOptions) (LoadCurve, error) {
	if len(opt.Fractions) == 0 {
		opt.Fractions = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.1}
	}
	curve := LoadCurve{Protocol: p.Name(), Mix: mix}
	base := opt.config(mix, seed)

	sat, err := driver.Run(p, base)
	if err != nil {
		return curve, fmt.Errorf("core: saturation estimate for %s: %w", p.Name(), err)
	}
	if sat.Throughput <= 0 {
		return curve, fmt.Errorf("core: %s committed nothing in the saturation run", p.Name())
	}
	curve.Saturated = sat.Throughput

	// Every point is the saturation run's spec at an open-loop rate;
	// refinement points run the doubled window.
	runPoint := func(rate float64, refined bool) (CurvePoint, error) {
		cfg := base
		cfg.Rate, cfg.DeterministicArrivals, cfg.Certify = rate, opt.Deterministic, opt.Certify
		if refined {
			cfg.Txns *= 2
		}
		rep, cert, err := runCell(p, cfg)
		if err != nil {
			return CurvePoint{}, fmt.Errorf("core: curve point %s at %.0f txn/s: %w", p.Name(), rate, err)
		}
		return CurvePoint{Report: *rep, Mix: mix, Fraction: rate / curve.Saturated, Refined: refined, Cert: cert}, nil
	}

	for _, frac := range opt.Fractions {
		pt, err := runPoint(frac*curve.Saturated, false)
		if err != nil {
			return curve, err
		}
		pt.Fraction = frac // exact, not re-derived through the division
		curve.Points = append(curve.Points, pt)
	}

	// belowKnee is the crossover predicate the knee is defined by:
	// queueing delay has not yet overtaken service time.
	belowKnee := func(pt CurvePoint) bool { return pt.QueueDelay.P50 <= pt.Service.P50 }

	if opt.RefineKnee {
		// Bracket the crossover from the swept points: lo is the highest
		// below-knee rate, hi the lowest past-knee rate above it. With no
		// point past the knee there is nothing to bisect; with every
		// point past it the bracket opens at zero offered load.
		lo, hi := 0.0, 0.0
		for _, pt := range curve.Points {
			if belowKnee(pt) {
				if pt.OfferedRate > lo {
					lo = pt.OfferedRate
				}
			} else if hi == 0 || pt.OfferedRate < hi {
				hi = pt.OfferedRate
			}
		}
		for round := 0; round < kneeRounds && hi > lo; round++ {
			mid := (lo + hi) / 2
			pt, err := runPoint(mid, true)
			if err != nil {
				return curve, err
			}
			curve.Points = append(curve.Points, pt)
			if belowKnee(pt) {
				lo = mid
			} else {
				hi = mid
			}
		}
	}

	for _, pt := range curve.Points {
		if belowKnee(pt) && pt.OfferedRate > curve.Knee {
			curve.Knee = pt.OfferedRate
		}
	}
	return curve, nil
}

// FormatLoadCurve renders a curve as a table.
func FormatLoadCurve(c LoadCurve) string {
	out := fmt.Sprintf("%s (saturated %.0f txn/s, knee %.0f txn/s)\n", c.Protocol, c.Saturated, c.Knee)
	out += fmt.Sprintf("%8s | %9s | %9s | %10s | %10s | %10s | %8s\n",
		"frac", "offered", "achieved", "e2e p50", "queue p50", "svc p50", "depth")
	for _, pt := range c.Points {
		out += fmt.Sprintf("%8.2f | %9.0f | %9.0f | %10d | %10d | %10d | %8d\n",
			pt.Fraction, pt.OfferedRate, pt.Throughput, pt.Latency.P50, pt.QueueDelay.P50,
			pt.Service.P50, pt.InFlight.Max)
	}
	return out
}
