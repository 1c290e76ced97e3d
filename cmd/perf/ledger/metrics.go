package ledger

import "sort"

// Metric names one number the benchmark reports. Host-time metrics are
// wall-clock or CPU of this machine; every name containing "virt_" and
// every unit "count" is simulated or counted, and is an exact function
// of the seed.
type Metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen
	// Workload is the traced workload that measures a per-layer metric
	// ("*" = every traced run); on any other workload it reads 0.
	Workload string
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move ("none" for the paper-artefact controls).
	Moves string
}

// EndToEnd is the metric set a user of the harness sees, the same on
// every workload. The fraction of failed transactions is not listed: the
// result line carries it as failed ÷ attempted, and a metric that is
// always 0 has no median to bound.
var EndToEnd = []Metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "txns_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// CertCells are the certified cells of cert-ride, the <c> of the
// history.<c>.* metrics.
var CertCells = []string{"cops-reads", "cops-writes", "spanner-reads", "naivefast"}

// PerLayer lists every per-layer metric, sorted by name. The layers are
// this repo's modules.
func PerLayer() []Metric {
	const (
		reads  = "load-reads"
		writes = "load-writes"
		cert   = "cert-ride"
		geo    = "open-geo-faults"
	)
	ms := []Metric{
		{Name: "sim.echo_ns_per_event_w1", Unit: "ns", Better: "lower", Workload: "*", Moves: "wall_s,cpu_s on load-reads"},
		{Name: "sim.echo_ns_per_event_w2", Unit: "ns", Better: "lower", Workload: "*", Moves: "wall_s on load-reads"},
		{Name: "sim.echo_allocs_per_event", Unit: "count", Better: "lower", Workload: "*", Moves: "cpu_s,peak_rss_mb on load-reads"},
		{Name: "sim.snapshot_us", Unit: "us", Better: "lower", Workload: "*", Moves: "wall_s on open-geo-faults"},
		{Name: "sim.speedup_w2", Unit: "ratio", Better: "higher", Workload: reads, Moves: "wall_s on load-reads"},
		{Name: "sim.modeled_parallelism.uniform", Unit: "ratio", Better: "higher", Workload: reads, Moves: "wall_s on load-reads, once a pool converts it"},
		{Name: "sim.rounds.uniform", Unit: "count", Better: "lower", Workload: reads, Moves: "wall_s on load-reads"},
		{Name: "sim.modeled_parallelism.2site", Unit: "ratio", Better: "higher", Workload: geo, Moves: "wall_s on open-geo-faults"},
		{Name: "sim.rounds.2site", Unit: "count", Better: "lower", Workload: geo, Moves: "wall_s on open-geo-faults"},
		{Name: "sim.blocked_shard_rounds.2site", Unit: "count", Better: "lower", Workload: geo, Moves: "wall_s on open-geo-faults"},

		{Name: "protocol.deploy_init_ms", Unit: "ms", Better: "lower", Workload: "*", Moves: "wall_s on load-writes (small share)"},

		{Name: "workload.next_ns", Unit: "ns", Better: "lower", Workload: "*", Moves: "wall_s on all (small share)"},

		{Name: "driver.stale_probe_ms", Unit: "ms", Better: "lower", Workload: geo, Moves: "wall_s on open-geo-faults"},
		{Name: "driver.nem_recovery_p50_us.cops", Unit: "us", Better: "lower", Workload: geo, Moves: "none (virtual; must not move under a perf-only change)"},
		{Name: "driver.nem_unavailable_us.cops", Unit: "us", Better: "lower", Workload: geo, Moves: "none (virtual; must not move under a perf-only change)"},

		{Name: "history.naivefast.first_violation_txn", Unit: "count", Better: "lower", Workload: cert, Moves: "none (exact; must not move)"},
		{Name: "history.check_refute_ms_n192", Unit: "ms", Better: "lower", Workload: "*", Moves: "none (batch solver control)"},

		{Name: "core.curve_wall_s.cops", Unit: "s", Better: "lower", Workload: geo, Moves: "wall_s on open-geo-faults"},
		{Name: "core.curve_wall_s.spanner", Unit: "s", Better: "lower", Workload: geo, Moves: "wall_s on open-geo-faults"},
		{Name: "core.table1_ms", Unit: "ms", Better: "lower", Workload: "*", Moves: "none (paper artefact: must stay milliseconds)"},
		{Name: "adversary.attack_all_ms", Unit: "ms", Better: "lower", Workload: "*", Moves: "none (paper artefact: must stay milliseconds)"},
		{Name: "cmd-bench.process_overhead_ms", Unit: "ms", Better: "lower", Workload: "*", Moves: "wall_s on cert-ride (49 children per rep)"},
		{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Workload: "*", Moves: "none (tracing cost, traced runs only)"},
	}
	for _, depth := range []string{"depth16", "depth4096"} {
		for _, op := range []string{"install", "find", "snapshot_read", "restamp"} {
			ms = append(ms, Metric{Name: "store." + op + "_ns." + depth, Unit: "ns", Better: "lower",
				Workload: "*", Moves: "wall_s on load-writes"})
		}
	}
	for _, p := range loadProtocols {
		for _, m := range []struct{ mix, wl string }{{"reads", reads}, {"writes", writes}} {
			pre := "protocols." + p + "." + m.mix + "."
			host := "wall_s,peak_rss_mb on " + m.wl
			exact := "none (exact; must not move under a perf-only change)"
			ms = append(ms,
				Metric{Name: pre + "ns_per_event", Unit: "ns", Better: "lower", Workload: m.wl, Moves: host},
				Metric{Name: pre + "allocs_per_event", Unit: "count", Better: "lower", Workload: m.wl, Moves: host},
				Metric{Name: pre + "events_per_txn", Unit: "count", Better: "lower", Workload: m.wl, Moves: exact},
				Metric{Name: pre + "virt_txns_per_s", Unit: "1/s", Better: "higher", Workload: m.wl, Moves: exact},
				Metric{Name: pre + "virt_p99_us", Unit: "us", Better: "lower", Workload: m.wl, Moves: exact},
			)
		}
	}
	for _, wl := range Workloads(2) {
		for _, c := range wl.TracedCommands() {
			if c.Curve {
				continue // core.curve_wall_s.* covers the curve cells
			}
			for _, p := range c.Protocols {
				ms = append(ms, Metric{Name: "driver.run_wall_s." + c.CellName(p), Unit: "s", Better: "lower",
					Workload: wl.Name, Moves: "wall_s on " + wl.Name})
			}
		}
	}
	for _, c := range CertCells {
		pre := "history." + c + "."
		host := "wall_s,txns_per_s on cert-ride"
		ms = append(ms,
			Metric{Name: pre + "session_wall_s", Unit: "s", Better: "lower", Workload: cert, Moves: host},
			Metric{Name: pre + "batch_wall_s", Unit: "s", Better: "lower", Workload: cert, Moves: "none (cost baseline)"},
			Metric{Name: pre + "session_over_batch", Unit: "ratio", Better: "lower", Workload: cert, Moves: host + " (ROADMAP target <= 2)"},
			Metric{Name: pre + "append_us_p50", Unit: "us", Better: "lower", Workload: cert, Moves: host},
			Metric{Name: pre + "append_us_p99", Unit: "us", Better: "lower", Workload: cert, Moves: host},
			Metric{Name: pre + "resolves", Unit: "count", Better: "lower", Workload: cert, Moves: host},
			Metric{Name: pre + "peak_window", Unit: "count", Better: "lower", Workload: cert, Moves: "peak_rss_mb on cert-ride"},
		)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}
