package core

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// LatencyReport is the outcome of one latency experiment (E7): virtual-time
// latencies of read-only and write transactions under concurrent
// closed-loop load, plus write-visibility staleness measured in a separate
// probe phase.
type LatencyReport struct {
	Protocol   string
	Mix        workload.Mix
	Clients    int
	ROT        stats.Summary // read-only transaction latency (virtual µs)
	Write      stats.Summary // write transaction latency
	Staleness  stats.Summary // write completion → value visibility
	ROTRounds  float64       // mean rounds per ROT
	Throughput float64       // committed txns per virtual second
	Incomplete int           // transactions that did not finish (should be 0)
}

func (r LatencyReport) String() string {
	return fmt.Sprintf("%-12s ROT{%s} rounds=%.2f\n%-12s write{%s}\n%-12s staleness{%s}",
		r.Protocol, r.ROT, r.ROTRounds, "", r.Write, "", r.Staleness)
}

// LatencyOptions scales the latency experiment's deployment.
type LatencyOptions struct {
	// Servers and ObjectsPerServer size the placement (defaults 2, 2).
	Servers          int
	ObjectsPerServer int
	// Clients is the number of concurrent closed-loop clients (default 2).
	Clients int
	// Pipeline is the per-client outstanding-invocation depth (default 1).
	Pipeline int
	// StalenessWrites is the number of writes probed for visibility
	// staleness (default 8; a negative value skips the staleness phase).
	StalenessWrites int
}

// MeasureLatency runs txns transactions of the mix on a fresh deployment
// of p under concurrent closed-loop load (driver.Run, the one sharded
// engine at Workers 1) and reports latencies. Multi-object writes degrade
// to single-object writes for protocols without the W property.
func MeasureLatency(p protocol.Protocol, mix workload.Mix, txns int, seed int64) (LatencyReport, error) {
	return MeasureLatencyWith(p, mix, txns, seed, LatencyOptions{})
}

// MeasureLatencyWith is MeasureLatency with explicit deployment scaling.
func MeasureLatencyWith(p protocol.Protocol, mix workload.Mix, txns int, seed int64, opt LatencyOptions) (LatencyReport, error) {
	if opt.Clients <= 0 {
		opt.Clients = 2
	}
	// Both phases must run on identically sized placements so the
	// staleness numbers describe the same system as the ROT/Write
	// numbers (driver.Config would default these itself, but
	// measureStaleness deploys directly).
	if opt.Servers <= 0 {
		opt.Servers = 2
	}
	if opt.ObjectsPerServer <= 0 {
		opt.ObjectsPerServer = 2
	}
	if opt.StalenessWrites == 0 {
		opt.StalenessWrites = 8
	}
	rep := LatencyReport{Protocol: p.Name(), Mix: mix, Clients: opt.Clients}

	load, err := driver.Run(p, driver.Config{
		Clients:          opt.Clients,
		Pipeline:         opt.Pipeline,
		Txns:             txns,
		Mix:              mix,
		Seed:             seed,
		Servers:          opt.Servers,
		ObjectsPerServer: opt.ObjectsPerServer,
	})
	if err != nil {
		return rep, err
	}
	rep.ROT = load.ROT
	rep.Write = load.Write
	rep.ROTRounds = load.ROTRounds
	rep.Throughput = load.Throughput
	rep.Incomplete = load.Incomplete

	if opt.StalenessWrites > 0 {
		stale, incomplete, err := measureStaleness(p, mix, opt, seed)
		if err != nil {
			return rep, err
		}
		rep.Staleness = stale
		rep.Incomplete += incomplete
	}
	return rep, nil
}

// measureStaleness runs a short lockstep write loop on a fresh deployment
// and measures, per write, the extra virtual time until the written values
// are visible to a fresh reader (the paper's visibility probes need
// snapshots and fine-grained control, so this phase stays sequential).
func measureStaleness(p protocol.Protocol, mix workload.Mix, opt LatencyOptions, seed int64) (stats.Summary, int, error) {
	d := protocol.Deploy(p, protocol.Config{
		Servers: opt.Servers, ObjectsPerServer: opt.ObjectsPerServer,
		Clients: 1, Seed: seed,
	})
	if err := d.InitAll(400_000); err != nil {
		return stats.Summary{}, 0, err
	}
	gen := workload.NewGenerator(mix, d.Place.Objects(), seed*31+7)
	multiWrite := p.Claims().MultiWriteTxn
	stale := stats.NewCollector()
	incomplete := 0
	sched := &sim.Network{}

	// Cross-server writes are the interesting staleness regime: visibility
	// of a multi-server transaction waits on stabilization traffic
	// (gossip, stable cutoffs), while a single-server write in a quiet
	// system is visible the moment it commits.
	srvs := d.Place.Servers()
	spanning := func(i int) *model.Txn {
		var writes []model.Write
		for j := 0; j < 2 && j < len(srvs); j++ {
			obj := d.Place.HostedBy(srvs[(i+j)%len(srvs)])[0]
			writes = append(writes, model.Write{
				Object: obj,
				Value:  model.Value(fmt.Sprintf("stale-%d-%s", i, obj)),
			})
		}
		return model.NewWriteOnly(model.TxnID{}, writes...)
	}

	for i := 0; i < opt.StalenessWrites; i++ {
		txn := gen.NextSingleWrite("c0")
		if multiWrite && mix.WriteWidth > 1 {
			txn = spanning(i)
		}
		res := d.RunTxnWith("c0", txn.Clone(), sched, 500_000)
		if res == nil || !res.OK() {
			incomplete++
			continue
		}
		want := make(map[string]model.Value)
		for _, w := range res.Txn.Writes {
			want[w.Object] = w.Value
		}
		t0 := d.Kernel.Now()
		visible := d.VisibleAll(d.Readers[0], want, true).Visible
		for tries := 0; tries < 64 && !visible; tries++ {
			sim.Run(d.Kernel, sched, nil, 32)
			visible = d.VisibleAll(d.Readers[0], want, true).Visible
		}
		if visible {
			stale.Add(int64(d.Kernel.Now() - t0))
		} else {
			incomplete++
		}
	}
	return stale.Summarize(), incomplete, nil
}

// LatencySweep measures every protocol under the given mix.
func LatencySweep(mix workload.Mix, txns int, seed int64) ([]LatencyReport, error) {
	var out []LatencyReport
	for _, p := range All() {
		rep, err := MeasureLatency(p, mix, txns, seed)
		if err != nil {
			return nil, fmt.Errorf("core: latency for %s: %w", p.Name(), err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// FormatLatency renders a sweep as a table.
func FormatLatency(reports []LatencyReport) string {
	out := fmt.Sprintf("%-12s | %10s | %10s | %8s | %10s | %14s\n",
		"System", "ROT p50", "ROT p99", "rounds", "write p50", "staleness mean")
	out += "---------------------------------------------------------------------------------\n"
	for _, r := range reports {
		// Mean, not p50: quiet-system staleness is bimodal (zero when
		// stabilization traffic beats the commit acks, one gossip delay
		// otherwise), so the median hides the lag entirely.
		out += fmt.Sprintf("%-12s | %10d | %10d | %8.2f | %10d | %14.1f\n",
			r.Protocol, r.ROT.P50, r.ROT.P99, r.ROTRounds, r.Write.P50, r.Staleness.Mean)
	}
	return out
}
