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

// ThroughputReport is the outcome of one closed-loop throughput run (the
// load regime the paper's introduction motivates: many concurrent clients
// over a skewed read-heavy mix).
type ThroughputReport struct {
	Protocol string
	Mix      workload.Mix
	Clients  int
	Pipeline int

	Committed  int
	Rejected   int
	Incomplete int
	Events     int

	// Duration is the virtual time the run spanned; Throughput is
	// committed transactions per virtual second.
	Duration   sim.Time
	Throughput float64
	AbortRate  float64

	Latency   stats.Summary
	ROT       stats.Summary
	Write     stats.Summary
	ROTRounds float64

	// Cert is the certification outcome (populated when
	// ThroughputOptions.Certify was set): the run certified ride-along by
	// a streaming incremental session as transactions committed,
	// cross-checked by the batch solver when the cell fits under
	// history.MaxTxns, with both wall-clocks. Cert.Level is empty when
	// certification was off.
	Cert Certification

	// Staleness tallies the frozen visibility probes (nil unless
	// ThroughputOptions.ProbeStaleness).
	Staleness *driver.StalenessReport

	// Sharding is the deterministic shape of the run: rounds, total vs
	// critical-path events, shard occupancy.
	Sharding *sim.ShardingStats

	// Nemesis is the fault-injection outcome (nil on fault-free runs):
	// applied fault counts, unavailability, recovery latency, the
	// degraded-phase transaction slice, and — for reconfiguration
	// schedules — the replacement catch-up cost (versions re-synced,
	// sync time, sync-phase latency; driver.NemesisReport semantics).
	Nemesis *driver.NemesisReport
}

// ThroughputOptions scales a throughput run.
type ThroughputOptions struct {
	Servers          int
	ObjectsPerServer int
	// Replication > 1 deploys the partially replicated placement
	// (protocol.Config semantics) instead of the disjoint one, charting
	// the partial-replication regimes of Theorem 2 under load.
	Replication int
	Pipeline    int
	Latency     sim.LatencyModel
	// Topology selects a geo-asymmetric deployment (driver.Config
	// semantics: sites, intra-/cross-site latency distributions with
	// declared per-link floors, site-aware shard striping). Nil is the
	// uniform deployment.
	Topology *protocol.Topology
	// Certify certifies the run ride-along at the protocol's claimed
	// consistency level: committed transactions feed a streaming
	// history.Session during the run (so full grid cells certify without
	// a reduced txn count), and the recorded history is re-checked by the
	// batch solver for the incremental-vs-batch comparison in Cert. The
	// batch cross-check only runs for cells at or below history.MaxTxns —
	// past that ceiling the streaming session is the only exact checker
	// and Cert.BatchWall stays zero.
	Certify bool
	// ProbeStaleness samples visibility staleness during the run
	// (driver.Config.ProbeStaleness semantics: frozen reads of committed
	// writes on kernel snapshots); tallies land in Staleness.
	ProbeStaleness bool
	// Workers sizes the stepping pool (driver.Config.Workers semantics,
	// default 1): one shard per server stepped on min(Workers, active
	// shards) goroutines. The measured numbers are a function of the
	// shard partition and seed, never of the worker count.
	Workers int
	// Rebalance recomputes the client→shard striping from a short
	// deterministic probe run's per-shard event counts before the
	// measured run (driver.Config.Rebalance semantics); the chosen
	// partition lands in Sharding.Partition.
	Rebalance bool
	// Nemesis schedules deterministic fault injection into the measured
	// phase (driver.Config.Nemesis semantics): seeded crash/restart,
	// partition/heal, replica-replacement and whole-cluster-restore
	// cycles, byte-identical at every worker count. Nil runs fault-free.
	Nemesis *driver.Nemesis
}

// MeasureThroughput runs txns transactions of the mix over the given
// number of concurrent closed-loop clients and reports throughput and
// latency under load.
func MeasureThroughput(p protocol.Protocol, mix workload.Mix, clients, txns int, seed int64) (ThroughputReport, error) {
	return MeasureThroughputWith(p, mix, clients, txns, seed, ThroughputOptions{})
}

// MeasureThroughputWith is MeasureThroughput with explicit scaling.
func MeasureThroughputWith(p protocol.Protocol, mix workload.Mix, clients, txns int, seed int64, opt ThroughputOptions) (ThroughputReport, error) {
	rep := ThroughputReport{Protocol: p.Name(), Mix: mix, Clients: clients}
	load, err := driver.Run(p, driver.Config{
		Clients:          clients,
		Pipeline:         opt.Pipeline,
		Txns:             txns,
		Mix:              mix,
		Seed:             seed,
		Servers:          opt.Servers,
		ObjectsPerServer: opt.ObjectsPerServer,
		Replication:      opt.Replication,
		Latency:          opt.Latency,
		Topology:         opt.Topology,
		RecordHistory:    opt.Certify && txns <= history.MaxTxns,
		Certify:          opt.Certify,
		ProbeStaleness:   opt.ProbeStaleness,
		Workers:          opt.Workers,
		Rebalance:        opt.Rebalance,
		Nemesis:          opt.Nemesis,
	})
	if err != nil {
		return rep, err
	}
	rep.Sharding = load.Sharding
	rep.Staleness = load.Staleness
	rep.Nemesis = load.Nemesis
	if opt.Certify {
		if rep.Cert, err = certifyRun(load); err != nil {
			return rep, err
		}
	}
	rep.Pipeline = load.Pipeline
	rep.Committed = load.Committed
	rep.Rejected = load.Rejected
	rep.Incomplete = load.Incomplete
	rep.Events = load.Events
	rep.Duration = load.Duration
	rep.Throughput = load.Throughput
	rep.AbortRate = load.AbortRate
	rep.Latency = load.Latency
	rep.ROT = load.ROT
	rep.Write = load.Write
	rep.ROTRounds = load.ROTRounds
	return rep, nil
}

// ThroughputSweep measures every protocol at each client count.
func ThroughputSweep(mix workload.Mix, clientCounts []int, txns int, seed int64) ([]ThroughputReport, error) {
	var out []ThroughputReport
	for _, p := range All() {
		for _, c := range clientCounts {
			rep, err := MeasureThroughput(p, mix, c, txns, seed)
			if err != nil {
				return nil, fmt.Errorf("core: throughput for %s at %d clients: %w", p.Name(), c, err)
			}
			out = append(out, rep)
		}
	}
	return out, nil
}

// FormatThroughput renders a sweep as a table.
func FormatThroughput(reports []ThroughputReport) string {
	out := fmt.Sprintf("%-12s | %7s | %10s | %12s | %8s | %8s | %10s\n",
		"System", "clients", "committed", "thr (txn/s)", "p50", "p99", "incomplete")
	out += "--------------------------------------------------------------------------------\n"
	for _, r := range reports {
		out += fmt.Sprintf("%-12s | %7d | %10d | %12.1f | %8d | %8d | %10d\n",
			r.Protocol, r.Clients, r.Committed, r.Throughput, r.Latency.P50, r.Latency.P99, r.Incomplete)
	}
	return out
}
