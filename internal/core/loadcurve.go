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
	// Fraction of the saturated (closed-loop) throughput offered.
	Fraction float64
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
	// semantics, cross-check included; the saturation estimate is never
	// certified).
	Certify bool
	Workers int
}

// config is the closed-loop saturation run of the sweep; every open-loop
// point derives from it, so the deployment cannot differ between them.
func (o CurveOptions) config(mix workload.Mix, seed int64) driver.Config {
	cfg := driver.Config{
		Clients: o.Clients, Txns: o.Txns, Mix: mix, Seed: seed,
		Servers: o.Servers, ObjectsPerServer: o.ObjectsPerServer, Replication: o.Replication,
		Topology: o.Topology, Workers: o.Workers,
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 400
	}
	return cfg
}

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

	// Every point is the saturation run's spec at an open-loop rate.
	for _, frac := range opt.Fractions {
		cfg := base
		cfg.Rate, cfg.DeterministicArrivals, cfg.Certify = frac*curve.Saturated, opt.Deterministic, opt.Certify
		rep, err := driver.Run(p, cfg)
		if err != nil {
			return curve, fmt.Errorf("core: curve point %s at %.0f txn/s: %w", p.Name(), cfg.Rate, err)
		}
		curve.Points = append(curve.Points, CurvePoint{Report: *rep, Fraction: frac})
	}

	// The knee: queueing delay has not yet overtaken service time.
	for _, pt := range curve.Points {
		if pt.QueueDelay.P50 <= pt.Service.P50 && pt.OfferedRate > curve.Knee {
			curve.Knee = pt.OfferedRate
		}
	}
	return curve, nil
}
