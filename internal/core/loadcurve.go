package core

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CurvePoint is one offered-rate point of a latency–throughput curve: an
// open-loop run at a fixed fraction of the protocol's saturated
// throughput.
type CurvePoint struct {
	Protocol string
	Mix      workload.Mix
	// Fraction of the saturated (closed-loop) throughput offered;
	// Offered is that rate in transactions per virtual second; Achieved
	// is what actually committed.
	Fraction float64
	Offered  float64
	Achieved float64

	Committed  int
	Rejected   int
	Incomplete int
	Events     int
	Duration   sim.Time

	// Latency is end-to-end (scheduled arrival → completion);
	// QueueDelay and Service are its decomposition; InFlight samples the
	// outstanding-transaction depth at every injection.
	Latency    stats.Summary
	QueueDelay stats.Summary
	Service    stats.Summary
	InFlight   stats.Summary

	// Cert is this point's ride-along certification outcome (populated
	// when CurveOptions.Certify was set): every open-loop point of the
	// curve is certified as it runs, same contract as the closed-loop
	// grid.
	Cert Certification

	// Refined marks a knee-bisection point (CurveOptions.RefineKnee):
	// it was not part of the swept fractions and ran with the longer
	// refinement window.
	Refined bool

	// Sharding is the deterministic shape of the point's run.
	Sharding *sim.ShardingStats
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

// CurveOptions scales a load-curve sweep.
type CurveOptions struct {
	Servers          int
	ObjectsPerServer int
	// Replication > 1 deploys the partially replicated placement
	// (protocol.Config semantics) instead of the disjoint one.
	Replication int
	// Clients receiving the open-loop arrivals round-robin (default 8).
	Clients int
	// Txns per curve point (default 400).
	Txns int
	// Fractions of the saturated throughput to sweep, ascending (default
	// 0.1, 0.25, 0.5, 0.75, 0.9, 1.1: light load to past saturation).
	Fractions []float64
	// Deterministic selects fixed-interval arrivals instead of Poisson.
	Deterministic bool
	Latency       sim.LatencyModel
	// Topology selects a geo-asymmetric deployment for every run of the
	// sweep (driver.Config semantics). Nil is the uniform deployment.
	Topology *protocol.Topology
	// Certify certifies every curve point ride-along at the protocol's
	// claimed consistency level (see ThroughputOptions.Certify): the
	// streaming session has no transaction ceiling; the batch
	// cross-check runs for points at or below history.MaxTxns only.
	Certify bool
	// RefineKnee bisects the knee after the fraction sweep: between the
	// highest swept rate still below the queueing/service crossover and
	// the lowest one past it, extra open-loop points run at the midpoint
	// rate until the bracket has collapsed (up to kneeRounds rounds).
	// Refinement points use the longer KneeTxns window — near the
	// crossover queueing and service percentiles are comparable, so the
	// short sweep window quantizes the knee to the swept fractions and
	// its p50s are noisy exactly where the curve bends. Default off: the
	// swept points and their knee are byte-identical to an unrefined
	// sweep; refined points are appended after them, marked Refined, and
	// the reported knee is recomputed over all points.
	RefineKnee bool
	// KneeTxns is the transaction count of each refinement point
	// (default 2×Txns).
	KneeTxns int
	// Workers sizes the stepping pool for every run of the sweep,
	// including the closed-loop saturation estimate (see
	// ThroughputOptions.Workers).
	Workers int
	// Rebalance recomputes the client→shard striping from a probe run
	// before every run of the sweep (see ThroughputOptions.Rebalance).
	Rebalance bool
}

func (o *CurveOptions) defaults() {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Txns <= 0 {
		o.Txns = 400
	}
	if len(o.Fractions) == 0 {
		o.Fractions = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.1}
	}
	if o.KneeTxns <= 0 {
		o.KneeTxns = 2 * o.Txns
	}
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
	opt.defaults()
	curve := LoadCurve{Protocol: p.Name(), Mix: mix}

	sat, err := driver.Run(p, driver.Config{
		Clients: opt.Clients, Txns: opt.Txns, Mix: mix, Seed: seed,
		Servers: opt.Servers, ObjectsPerServer: opt.ObjectsPerServer,
		Replication: opt.Replication,
		Latency:     opt.Latency,
		Topology:    opt.Topology,
		Workers:     opt.Workers,
		Rebalance:   opt.Rebalance,
	})
	if err != nil {
		return curve, fmt.Errorf("core: saturation estimate for %s: %w", p.Name(), err)
	}
	if sat.Throughput <= 0 {
		return curve, fmt.Errorf("core: %s committed nothing in the saturation run", p.Name())
	}
	curve.Saturated = sat.Throughput

	runPoint := func(rate float64, txns int, refined bool) (CurvePoint, error) {
		rep, err := driver.Run(p, driver.Config{
			Clients: opt.Clients, Txns: txns, Mix: mix, Seed: seed,
			Servers: opt.Servers, ObjectsPerServer: opt.ObjectsPerServer,
			Replication: opt.Replication,
			Latency:     opt.Latency,
			Rate:        rate, DeterministicArrivals: opt.Deterministic,
			RecordHistory: opt.Certify && txns <= history.MaxTxns, Certify: opt.Certify,
			Workers: opt.Workers, Rebalance: opt.Rebalance,
		})
		if err != nil {
			return CurvePoint{}, fmt.Errorf("core: curve point %s at %.0f txn/s: %w", p.Name(), rate, err)
		}
		pt := CurvePoint{
			Protocol: p.Name(), Mix: mix,
			Fraction: rate / curve.Saturated, Offered: rate, Achieved: rep.Throughput,
			Committed: rep.Committed, Rejected: rep.Rejected,
			Incomplete: rep.Incomplete, Events: rep.Events, Duration: rep.Duration,
			Latency: rep.Latency, QueueDelay: rep.QueueDelay,
			Service: rep.Service, InFlight: rep.InFlight,
			Sharding: rep.Sharding,
			Refined:  refined,
		}
		if opt.Certify {
			if pt.Cert, err = certifyRun(rep); err != nil {
				return CurvePoint{}, err
			}
		}
		return pt, nil
	}

	for _, frac := range opt.Fractions {
		pt, err := runPoint(frac*curve.Saturated, opt.Txns, false)
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
				if pt.Offered > lo {
					lo = pt.Offered
				}
			} else if hi == 0 || pt.Offered < hi {
				hi = pt.Offered
			}
		}
		for round := 0; round < kneeRounds && hi > lo; round++ {
			mid := (lo + hi) / 2
			pt, err := runPoint(mid, opt.KneeTxns, true)
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
		if belowKnee(pt) && pt.Offered > curve.Knee {
			curve.Knee = pt.Offered
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
			pt.Fraction, pt.Offered, pt.Achieved, pt.Latency.P50, pt.QueueDelay.P50,
			pt.Service.P50, pt.InFlight.Max)
	}
	return out
}
