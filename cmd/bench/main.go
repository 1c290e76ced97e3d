// Command bench runs the concurrent load harness and emits
// machine-readable JSON grids, one row per measured cell.
//
// Both modes sweep protocol × mix × topology × servers × replication ×
// txns × clients, in that order (-protocols, -mixes, -topology, -servers,
// -replication, -txns; replication factors above a cell's server count
// are skipped), and share -objects, -seed, -workers, -rebalance and
// -certify. The default -servers 2,4,8 charts how every protocol behaves
// as transactions span more partitions — the regime the paper's theorems
// speak to — and -replication >1 adds the partially replicated placements
// of Theorem 2. A flag the selected mode does not read is refused by
// name, never dropped, and so is a sweep with no cell in it.
//
//   - Closed-loop grid (default): -clients saturated clients per cell
//     with -pipeline outstanding invocations each; rows carry throughput
//     (committed transactions per virtual second), latency percentiles,
//     abort and incompletion counts. Only here: -stale samples committed
//     writes with a frozen reserved-reader visibility probe (stale_*
//     columns) and -nemesis injects a deterministic fault schedule (nem_*
//     columns).
//   - Open-loop curve (-curve): each cell's saturated throughput is
//     estimated closed-loop over -curveclients clients, then one
//     open-loop run per -fractions entry (-arrivals poisson|uniform)
//     charts the latency–throughput curve, with queueing delay and
//     service latency reported separately and the knee of the curve on
//     every row. Only here: -refineknee bisects the queueing/service
//     crossover with longer-window points after the fraction sweep.
//
// Cells step under the sharded conservative-lookahead engine (one shard
// per server, each advancing to its Chandy–Misra null-message bound; see
// internal/sim.NewLookaheadRunner), each one serially. -workers N runs N
// cells of the sweep at a time: cells share nothing and rows keep sweep
// order, so two runs differing only in -workers emit byte-identical JSON
// (the CI equivalence smokes diff them); *_wall_ms columns are host time,
// comparable at -workers 1 only. -rebalance recomputes the client→shard
// striping from a deterministic probe run. Rows carry engine/shards/
// rounds/critical_path_events plus the lookahead shape (null_advances,
// blocked_shard_rounds, blocked_time_us): events ÷ critical_path_events
// is the cell's measured shard-parallelism — the speedup ceiling of a
// perfectly balanced worker pool inside the cell.
//
// With -certify each cell (grid cells and curve points alike) is
// certified ride-along: committed transactions feed a streaming
// history.Session at the protocol's claimed consistency level while the
// run executes, evicting committed closure prefixes as their outcomes
// pin, so -txns has no certification ceiling — a violating cell reports
// the first offending commit (first_violation_txn). Cells at or below
// history.MaxTxns transactions additionally record their history and
// re-solve it with the one-shot batch checker as a cross-check; both
// wall-clocks land in the row (cert_wall_ms incremental vs
// cert_batch_wall_ms, the latter zero past the ceiling).
//
// -cpuprofile and -memprofile (both modes) write pprof profiles of the
// whole sweep when it ends; they go to the named files only, so stdout —
// the grid — is byte-identical with or without them.
//
// Runs are fully deterministic: the same flags produce byte-identical
// output, so the JSON can be diffed across commits to track performance
// trajectories. (Exception: cert_wall_ms and cert_batch_wall_ms under
// -certify are wall-clock; every other field — the -stale tallies
// included — stays deterministic.)
//
//	go run ./cmd/bench -clients 16 -txns 2000
//	go run ./cmd/bench -protocols all -clients 1,8,32 -mixes readheavy,balanced
//	go run ./cmd/bench -servers 2,4,8 -replication 1,2 -workers 4 -txns 2000
//	go run ./cmd/bench -certify -protocols cops -servers 4 -clients 16,256 -txns 2000,100000
//	go run ./cmd/bench -stale -protocols cops,cure -clients 16
//	go run ./cmd/bench -curve -certify -refineknee -protocols cops,spanner -fractions 0.1,0.5,0.9,1.1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/workload"
)

// row is one grid cell of the benchmark output. The worker count is
// deliberately NOT a column: it only decides how many cells run at once,
// so grids produced with different -workers settings must diff
// byte-identically (the CI equivalence smokes rely on it).
type row struct {
	cellCols
	Pipeline    int     `json:"pipeline"`
	Txns        int     `json:"txns"`
	Committed   int     `json:"committed"`
	Rejected    int     `json:"rejected"`
	Incomplete  int     `json:"incomplete"`
	Events      int     `json:"events"`
	DurationUs  int64   `json:"duration_us"`
	Throughput  float64 `json:"throughput_txn_per_s"`
	LatencyP50  int64   `json:"latency_p50_us"`
	LatencyP90  int64   `json:"latency_p90_us"`
	LatencyP99  int64   `json:"latency_p99_us"`
	LatencyMean float64 `json:"latency_mean_us"`
	ROTP50      int64   `json:"rot_p50_us"`
	ROTP99      int64   `json:"rot_p99_us"`
	ROTRounds   float64 `json:"rot_rounds"`
	WriteP50    int64   `json:"write_p50_us"`
	WriteP99    int64   `json:"write_p99_us"`

	// Sharded-stepping shape columns, shared with the -curve rows. All
	// deterministic: critical_path_events is the serialized run length
	// under unbounded workers, so events/critical_path_events is the
	// measured shard-parallelism of the cell.
	shardCols

	// Certification columns, shared with the -curve rows (present with
	// -certify only).
	certCols

	// Staleness-probe columns (present with -stale only).
	staleCols

	// Nemesis fault-injection columns (present with -nemesis only; all
	// omitted on fault-free rows so existing grids stay byte-diffable).
	nemCols
}

// cellCols is the leading column set of every row of both modes: which
// cell of the sweep the row measured. Uniform-topology rows omit
// topology/sites, so grids from before the topology axis stay diffable.
type cellCols struct {
	Protocol     string  `json:"protocol"`
	MixName      string  `json:"mix"`
	ReadFraction float64 `json:"read_fraction"`
	ZipfS        float64 `json:"zipf_s"`
	Servers      int     `json:"servers"`
	Replication  int     `json:"replication"`
	Topology     string  `json:"topology,omitempty"`
	Sites        int     `json:"sites,omitempty"`
	Clients      int     `json:"clients"`
}

func (c cell) cols() cellCols {
	cols := cellCols{
		Protocol: c.p.Name(), MixName: c.mixName,
		ReadFraction: c.cfg.Mix.ReadFraction, ZipfS: c.cfg.Mix.ZipfS,
		Servers: c.cfg.Servers, Replication: c.cfg.Replication, Clients: c.cfg.Clients,
	}
	if t := c.cfg.Topology; t != nil {
		cols.Topology, cols.Sites = t.Name, t.Sites
	}
	return cols
}

// shardCols is the sharded-stepping column set. engine names the
// stepping engine (always "lookahead"); null_advances counts
// shard-rounds that advanced past the global window edge on a
// null-message bound, blocked_shard_rounds/blocked_time_us the
// shard-rounds (and summed virtual time) spent waiting on a peer's bound.
type shardCols struct {
	Shards             int    `json:"shards,omitempty"`
	Engine             string `json:"engine,omitempty"`
	Rounds             int    `json:"rounds,omitempty"`
	CriticalPathEvent  int    `json:"critical_path_events,omitempty"`
	NullAdvances       int    `json:"null_advances,omitempty"`
	BlockedShardRounds int    `json:"blocked_shard_rounds,omitempty"`
	BlockedTimeUs      int64  `json:"blocked_time_us,omitempty"`
	Rebalanced         bool   `json:"rebalanced,omitempty"`
}

// shardCells fills the sharded-stepping columns from a run's stats.
func shardCells(r *shardCols, s *sim.ShardingStats) {
	r.Shards = s.Shards
	r.Engine = "lookahead"
	r.Rounds = s.Rounds
	r.CriticalPathEvent = s.CriticalEvents
	r.NullAdvances = s.NullAdvances
	r.BlockedShardRounds = s.BlockedShardRounds
	r.BlockedTimeUs = int64(s.BlockedTime)
	r.Rebalanced = s.Rebalanced
}

// certCols is the certification column set every certified grid row
// carries. cert is "ok" or "violation"; first_violation_txn is the
// append index of the first offending commit on a violation;
// cert_wall_ms is the ride-along session's cumulative wall-clock and
// cert_batch_wall_ms the batch re-check's — the two nondeterministic
// fields in the output, so -certify runs are not byte-diffable across
// commits; everything else still is.
type certCols struct {
	Cert              string  `json:"cert,omitempty"`
	CertLevel         string  `json:"cert_level,omitempty"`
	CertReason        string  `json:"cert_reason,omitempty"`
	CertTxns          int     `json:"cert_txns,omitempty"`
	FirstViolationTxn *int    `json:"first_violation_txn,omitempty"`
	CertWallMS        float64 `json:"cert_wall_ms,omitempty"`
	CertBatchWallMS   float64 `json:"cert_batch_wall_ms,omitempty"`
}

// certCells fills the certification columns from a measured outcome
// (none when the cell ran uncertified).
func certCells(r *certCols, c core.Certification) {
	if c.Level == "" {
		return
	}
	r.Cert = "ok"
	if !c.OK {
		r.Cert = "violation"
		fv := c.FirstViolation
		r.FirstViolationTxn = &fv
	}
	r.CertLevel = c.Level
	r.CertReason = c.Reason
	r.CertTxns = c.Txns
	r.CertWallMS = float64(c.IncrementalWall.Microseconds()) / 1000
	r.CertBatchWallMS = float64(c.BatchWall.Microseconds()) / 1000
}

// staleCols is the staleness-probe column set (present with -stale
// only). stale_probes counts sampled committed writes, stale_hits the
// probes whose write was not yet fully visible to the frozen reserved
// reader, stale_incomplete the probes whose read could not even finish
// on the frozen schedule. Probes run on kernel snapshots between events,
// so unlike the cert wall-clocks all three tallies are deterministic and
// byte-diffable.
type staleCols struct {
	StaleProbes     int `json:"stale_probes,omitempty"`
	StaleHits       int `json:"stale_hits,omitempty"`
	StaleIncomplete int `json:"stale_incomplete,omitempty"`
}

// staleCells fills the staleness columns from a run's probe report.
func staleCells(r *staleCols, s *driver.StalenessReport) {
	if s == nil {
		return
	}
	r.StaleProbes = s.Probes
	r.StaleHits = s.Stale
	r.StaleIncomplete = s.Incomplete
}

// nemCols is the fault-injection column set (present with -nemesis only).
// nem_faults counts applied faults; nem_unavailable_us the merged virtual
// time some fault was active; nem_recovery_p50_us the median heal/restart
// → first-qualifying-commit latency; nem_faulted_committed the commits
// whose lifetime crossed a fault window. All deterministic: faults are
// part of the schedule, so -nemesis grids diff byte-identically across
// worker counts like every other grid.
type nemCols struct {
	NemFaults           int   `json:"nem_faults,omitempty"`
	NemCrashes          int   `json:"nem_crashes,omitempty"`
	NemPartitions       int   `json:"nem_partitions,omitempty"`
	NemUnavailableUs    int64 `json:"nem_unavailable_us,omitempty"`
	NemRecoveries       int   `json:"nem_recoveries,omitempty"`
	NemUnrecovered      int   `json:"nem_unrecovered,omitempty"`
	NemRecoveryP50Us    int64 `json:"nem_recovery_p50_us,omitempty"`
	NemRecoveryMaxUs    int64 `json:"nem_recovery_max_us,omitempty"`
	NemLostMsgs         int64 `json:"nem_lost_msgs,omitempty"`
	NemFaultedCommitted int   `json:"nem_faulted_committed,omitempty"`
	NemFaultedRejected  int   `json:"nem_faulted_rejected,omitempty"`
	NemFaultedP99Us     int64 `json:"nem_faulted_p99_us,omitempty"`
	// Reconfiguration columns (nonzero under -nemesis replace/restore):
	// nem_sync_versions is the total state replacements adopted (durable
	// image + peer transfer), nem_sync_peer_versions the peer-transferred
	// share, nem_sync_time_us the summed deterministic catch-up duration,
	// nem_sync_committed / nem_sync_p99_us the replacement-phase slice —
	// commits whose lifetime crossed a catch-up window.
	NemReplacements     int   `json:"nem_replacements,omitempty"`
	NemRestores         int   `json:"nem_restores,omitempty"`
	NemSyncVersions     int64 `json:"nem_sync_versions,omitempty"`
	NemSyncPeerVersions int64 `json:"nem_sync_peer_versions,omitempty"`
	NemSyncTimeUs       int64 `json:"nem_sync_time_us,omitempty"`
	NemSyncCommitted    int   `json:"nem_sync_committed,omitempty"`
	NemSyncP99Us        int64 `json:"nem_sync_p99_us,omitempty"`
}

// nemCells fills the nemesis columns from a run's fault report.
func nemCells(r *nemCols, n *driver.NemesisReport) {
	if n == nil {
		return
	}
	r.NemFaults = n.Applied
	r.NemCrashes = n.Crashes
	r.NemPartitions = n.Partitions
	r.NemUnavailableUs = int64(n.UnavailableTime)
	r.NemRecoveries = n.Recoveries
	r.NemUnrecovered = n.Unrecovered
	r.NemRecoveryP50Us = n.RecoveryLatency.P50
	r.NemRecoveryMaxUs = n.RecoveryLatency.Max
	r.NemLostMsgs = n.LostMessages
	r.NemFaultedCommitted = n.FaultedCommitted
	r.NemFaultedRejected = n.FaultedRejected
	r.NemFaultedP99Us = n.FaultedLatency.P99
	r.NemReplacements = n.Replacements
	r.NemRestores = n.Restores
	r.NemSyncVersions = n.SyncedVersions
	r.NemSyncPeerVersions = n.PeerSyncedVersions
	r.NemSyncTimeUs = int64(n.SyncTime)
	r.NemSyncCommitted = n.SyncPhaseCommitted
	r.NemSyncP99Us = n.SyncPhaseLatency.P99
}

// nemesisByName resolves the -nemesis flag to a named fault schedule.
// Schedules are sized for the default grid cells (≥ a few hundred txns):
// faults land well inside the measured phase, downtime is an order of
// magnitude above the latency ceiling, and everything heals before the
// run drains.
func nemesisByName(name string) (*driver.Nemesis, error) {
	switch name {
	case "":
		return nil, nil
	case "crash":
		return &driver.Nemesis{Crashes: 2, Start: 20_000, Period: 200_000, Duration: 10_000}, nil
	case "crash-lose":
		return &driver.Nemesis{Crashes: 1, Lose: true, Start: 20_000, Duration: 10_000}, nil
	case "partition":
		return &driver.Nemesis{Partitions: 1, Start: 20_000, Duration: 15_000}, nil
	case "crash+partition":
		return &driver.Nemesis{Crashes: 1, Partitions: 1, Start: 20_000, Period: 120_000, Duration: 10_000}, nil
	case "replace":
		// One mid-run replica replacement (fires at Start+Period/4): the
		// durable image reattaches and the replacement catches up from
		// live peers before serving.
		return &driver.Nemesis{Replaces: 1, Start: 20_000, Period: 80_000}, nil
	case "replace-lose":
		// Replacement with the disk gone: the fresh process owns only what
		// live peers transfer — real data loss under disjoint placement.
		return &driver.Nemesis{Replaces: 1, Lose: true, Start: 20_000, Period: 80_000}, nil
	case "restore":
		// One coordinated whole-cluster stop-and-rebuild from durable
		// snapshots (fires at Start+3·Period/4).
		return &driver.Nemesis{Restores: 1, Start: 20_000, Period: 80_000}, nil
	default:
		return nil, fmt.Errorf("unknown nemesis %q (have crash, crash-lose, partition, crash+partition, replace, replace-lose, restore)", name)
	}
}

func mixByName(name string) (workload.Mix, error) {
	switch name {
	case "readheavy":
		return workload.ReadHeavy(), nil
	case "balanced":
		return workload.Balanced(), nil
	default:
		return workload.Mix{}, fmt.Errorf("unknown mix %q (have readheavy, balanced)", name)
	}
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// sweep is what the flags parse into: the mode, the axes a run takes the
// cartesian product over, and the driver.Config every cell of it shares.
type sweep struct {
	curve       bool
	protocols   []string
	mixes       []string
	topologies  []string
	servers     []int
	replication []int
	txns        []int
	clients     []int // -clients, or -curveclients under -curve
	// cell holds what the flags fix for every cell (Pipeline,
	// ObjectsPerServer, Seed, Certify, ProbeStaleness, Rebalance, Nemesis,
	// DeterministicArrivals); cells fills in the axes.
	cell driver.Config
	// workers is how many cells run at once (-workers).
	workers int
	// Curve mode only.
	fractions  []float64
	refineKnee bool
	// Where to write pprof profiles of the sweep ("": none).
	cpuProfile, memProfile string
}

// cell is one point of the sweep: the spec that runs, and the two labels
// a driver.Config does not keep.
type cell struct {
	p       protocol.Protocol
	mixName string
	cfg     driver.Config
}

// cells enumerates the sweep — protocol × mix × topology × servers ×
// replication × txns × clients, which is the row order of both modes —
// skipping replication factors that exceed the cell's server count.
func (s sweep) cells() ([]cell, error) {
	var out []cell
	for _, name := range s.protocols {
		p := core.ByName(strings.TrimSpace(name))
		if p == nil {
			return nil, fmt.Errorf("unknown protocol %q (have %v)", name, core.Names())
		}
		for _, mixName := range s.mixes {
			mixName = strings.TrimSpace(mixName)
			mix, err := mixByName(mixName)
			if err != nil {
				return nil, err
			}
			for _, topoName := range s.topologies {
				topo, err := protocol.TopologyByName(strings.TrimSpace(topoName))
				if err != nil {
					return nil, err
				}
				for _, srv := range s.servers {
					for _, repl := range s.replication {
						if repl > srv {
							continue
						}
						for _, txns := range s.txns {
							for _, cl := range s.clients {
								cfg := s.cell
								cfg.Mix, cfg.Topology = mix, topo
								cfg.Servers, cfg.Replication, cfg.Txns, cfg.Clients = srv, repl, txns, cl
								out = append(out, cell{p, mixName, cfg})
							}
						}
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty sweep: every -replication factor in %v exceeds every -servers count in %v",
			s.replication, s.servers)
	}
	return out, nil
}

// measureCells runs measure over the sweep's cells, s.workers of them at
// a time, and returns their rows in sweep order. After a failure no
// further cell starts; cells are claimed in sweep order, so the first
// failing cell in that order has run, and its error is the one returned.
func measureCells[R any](s sweep, measure func(cell) ([]R, error)) ([]R, error) {
	cells, err := s.cells()
	if err != nil {
		return nil, err
	}
	rows := make([][]R, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(s.workers, len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(cells)); i = next.Add(1) - 1 {
				if rows[i], errs[i] = measure(cells[i]); errs[i] != nil {
					next.Store(int64(len(cells)))
				}
			}
		}()
	}
	wg.Wait()
	if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
		return nil, errs[i]
	}
	return slices.Concat(rows...), nil
}

// buildGrid measures every cell closed-loop. Fully deterministic for a
// fixed sweep (worker count excluded: it only decides how many cells run
// at once).
func buildGrid(s sweep) ([]row, error) {
	return measureCells(s, func(c cell) ([]row, error) {
		rep, err := core.MeasureThroughputWith(c.p, c.cfg)
		if err != nil {
			return nil, err
		}
		r := row{
			cellCols:    c.cols(),
			Pipeline:    rep.Pipeline,
			Txns:        c.cfg.Txns,
			Committed:   rep.Committed,
			Rejected:    rep.Rejected,
			Incomplete:  rep.Incomplete,
			Events:      rep.Events,
			DurationUs:  int64(rep.Duration),
			Throughput:  rep.Throughput,
			LatencyP50:  rep.Latency.P50,
			LatencyP90:  rep.Latency.P90,
			LatencyP99:  rep.Latency.P99,
			LatencyMean: rep.Latency.Mean,
			ROTP50:      rep.ROT.P50,
			ROTP99:      rep.ROT.P99,
			ROTRounds:   rep.ROTRounds,
			WriteP50:    rep.Write.P50,
			WriteP99:    rep.Write.P99,
		}
		shardCells(&r.shardCols, rep.Sharding)
		certCells(&r.certCols, rep.Cert)
		staleCells(&r.staleCols, rep.Staleness)
		nemCells(&r.nemCols, rep.Nemesis)
		return []row{r}, nil
	})
}

// flagMode names the flags only one mode reads (true: -curve, false: the
// closed-loop grid). Set under the other mode they are refused, not
// dropped: -nemesis and -stale would confound an open-loop latency curve
// with fault windows and probe hand-backs, -pipeline and -clients have
// no meaning when arrivals are injected, and the rest shape a rate sweep
// the grid does not run.
var flagMode = map[string]bool{
	"clients": false, "pipeline": false, "stale": false, "nemesis": false,
	"curveclients": true, "fractions": true, "arrivals": true, "refineknee": true,
}

// parseSweep parses and validates a command line.
func parseSweep(args []string, stderr io.Writer) (sweep, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	protocols := fs.String("protocols", "cops,cure,spanner",
		"comma-separated protocol names, or 'all'")
	clients := fs.String("clients", "16",
		"closed-loop grid only: comma-separated concurrent client counts")
	txns := fs.String("txns", "2000",
		"comma-separated transactions-per-cell counts: a sweep axis in both "+
			"modes (each count is a full grid/curve pass)")
	mixes := fs.String("mixes", "readheavy", "comma-separated mixes (readheavy, balanced)")
	pipeline := fs.Int("pipeline", 1, "closed-loop grid only: outstanding invocations per client")
	servers := fs.String("servers", "2,4,8",
		"comma-separated server counts: the default grid charts the multi-server cells")
	replication := fs.String("replication", "1",
		"comma-separated replication factors (>1 deploys the partially replicated placement; factors exceeding the cell's server count are skipped)")
	topology := fs.String("topology", "uniform",
		"comma-separated deployment topologies (uniform, 2site, 3site): multi-site "+
			"cells draw intra-site latencies from [100,300]us and cross-site from "+
			"[2000,4000]us with matching per-link floors, which widen the "+
			"lookahead bounds between sites")
	objects := fs.Int("objects", 2, "objects per server")
	seed := fs.Int64("seed", 42, "deterministic run seed")
	workers := fs.Int("workers", 1,
		"cells of the sweep measured at a time, >= 1 — each cell steps serially and rows "+
			"keep sweep order, so outputs diff byte-for-byte across worker counts")
	rebalance := fs.Bool("rebalance", false,
		"recompute the client-to-shard striping per cell from a deterministic "+
			"probe run's per-shard event counts (the chosen partition changes "+
			"the cell's schedule, deterministically)")
	certify := fs.Bool("certify", false, fmt.Sprintf(
		"certify each cell ride-along at the protocol's claimed consistency "+
			"level (adds cert fields incl. first_violation_txn to the grid): "+
			"the streaming session retires committed prefixes as it goes, so "+
			"-txns has no certification ceiling; cells at or below %d txns "+
			"(history.MaxTxns) are additionally re-solved by the batch checker "+
			"as a cross-check (cert_batch_wall_ms; zero past the ceiling). "+
			"cert_wall_ms/cert_batch_wall_ms are wall-clock, so output is no "+
			"longer byte-diffable", history.MaxTxns))
	stale := fs.Bool("stale", false,
		"closed-loop grid only: sample committed writes with a frozen "+
			"reserved-reader visibility probe and add stale_probes/stale_hits/"+
			"stale_incomplete columns (deterministic: probes run on kernel "+
			"snapshots between events and never perturb the run)")
	nemesis := fs.String("nemesis", "",
		"closed-loop grid only: inject a deterministic fault schedule into "+
			"every cell (crash, crash-lose, partition, crash+partition, "+
			"replace, replace-lose, restore) and add nem_* columns — applied "+
			"faults, unavailability, recovery latency, degraded-phase counts, "+
			"and for reconfiguration schedules the replacement catch-up cost "+
			"(nem_sync_* columns). The schedule is a pure function of the seed "+
			"and cell config, so -nemesis grids stay byte-diffable across "+
			"worker counts; fault-free rows omit the columns entirely")
	refineKnee := fs.Bool("refineknee", false,
		"curve mode only: after the -fractions sweep, bisect the queueing/service "+
			"crossover with longer-window open-loop points (rows marked "+
			"\"refined\": true) instead of quantizing the knee to the swept "+
			"fractions; swept rows stay byte-identical to an unrefined sweep")
	curve := fs.Bool("curve", false,
		"sweep open-loop offered load instead of closed-loop client counts")
	fractions := fs.String("fractions", "0.1,0.25,0.5,0.75,0.9,1.1",
		"curve mode only: comma-separated fractions of saturated throughput to offer")
	curveClients := fs.String("curveclients", "8",
		"curve mode only: comma-separated client counts receiving arrivals (a sweep axis)")
	arrivals := fs.String("arrivals", "poisson", "curve mode only: arrival process (poisson, uniform)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file (never to stdout)")
	memProfile := fs.String("memprofile", "", "write a heap profile, taken when the sweep ends, to this file")
	if err := fs.Parse(args); err != nil {
		return sweep{}, err
	}

	var err error
	fs.Visit(func(f *flag.Flag) {
		if inCurve, modal := flagMode[f.Name]; !modal || inCurve == *curve || err != nil {
			return
		}
		if *curve {
			err = fmt.Errorf("-%s is closed-loop-grid only: -curve does not read it", f.Name)
		} else {
			err = fmt.Errorf("-%s is curve mode only: it needs -curve", f.Name)
		}
	})
	if err != nil {
		return sweep{}, err
	}
	if *workers < 1 {
		return sweep{}, fmt.Errorf("-workers %d: it counts the cells measured at a time, at least 1; -workers 1 runs the sweep one cell after another and is the byte-identical oracle for any higher count", *workers)
	}
	if *arrivals != "poisson" && *arrivals != "uniform" {
		return sweep{}, fmt.Errorf("unknown arrival process %q (have poisson, uniform)", *arrivals)
	}

	s := sweep{
		curve:      *curve,
		protocols:  strings.Split(*protocols, ","),
		mixes:      strings.Split(*mixes, ","),
		topologies: strings.Split(*topology, ","),
		refineKnee: *refineKnee, workers: *workers,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
		cell: driver.Config{
			Pipeline: *pipeline, ObjectsPerServer: *objects, Seed: *seed,
			Certify: *certify, ProbeStaleness: *stale, Rebalance: *rebalance,
			DeterministicArrivals: *arrivals == "uniform",
		},
	}
	if *protocols == "all" {
		s.protocols = core.Names()
	}
	clientsFlag := "clients"
	if s.curve {
		clients, clientsFlag = curveClients, "curveclients"
	}
	for _, axis := range []struct {
		name string
		csv  string
		into *[]int
	}{
		{"servers", *servers, &s.servers}, {"replication", *replication, &s.replication},
		{"txns", *txns, &s.txns}, {clientsFlag, *clients, &s.clients},
	} {
		if *axis.into, err = parseInts(axis.csv); err != nil {
			return sweep{}, fmt.Errorf("-%s: %w", axis.name, err)
		}
	}
	if s.fractions, err = parseFloats(*fractions); err != nil {
		return sweep{}, fmt.Errorf("-fractions: %w", err)
	}
	if s.cell.Nemesis, err = nemesisByName(*nemesis); err != nil {
		return sweep{}, err
	}
	return s, nil
}

// startProfiles begins the CPU profile (cpu != "") and returns the
// function that ends it and writes the heap profile (mem != "").
func startProfiles(cpu, mem string) (stop func() error, err error) {
	// Linking runtime/pprof makes the runtime sample heap allocations
	// (without it the linker turns sampling off): ~5% of an
	// allocation-heavy cell. Only a run that asked for the profile pays.
	runtime.MemProfileRate = 0
	if mem != "" {
		runtime.MemProfileRate = 512 * 1024 // the runtime's default
	}
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // the live heap, not what the last cycle left behind
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		return f.Close()
	}, nil
}

// run is main without the process: parse args into a sweep, measure it,
// print the rows as JSON. Nothing reaches stdout on error.
func run(args []string, stdout, stderr io.Writer) error {
	s, err := parseSweep(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	stopProfiles, err := startProfiles(s.cpuProfile, s.memProfile)
	if err != nil {
		return err
	}
	var out any
	if s.curve {
		out, err = buildCurve(s)
	} else {
		out, err = buildGrid(s)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
