// Package driver is the concurrent load harness: it drives N protocol
// clients with transactions from a workload generator, records
// per-transaction latency, computes throughput (committed transactions
// per virtual second) and abort/incompletion rates, and can collect the
// completed operations into a history for consistency certification of
// concurrent executions.
//
// Certification can ride along with the run itself (Config.Certify):
// every committed transaction is appended to an incremental
// history.Session at the protocol's claimed consistency level as it is
// collected, so full-size load runs are certified without re-solving the
// history afterwards, and a violating run is pinned to its first
// offending commit (with the minimal witness prefix) in Report.Cert.
//
// Two load regimes are supported. Closed loop (the default) keeps every
// client saturated: up to Pipeline invocations outstanding per client, a
// new transaction submitted the moment one completes — this measures the
// saturated endpoint of the latency–throughput curve. Open loop
// (Config.Rate > 0) injects transactions at instants drawn from a
// seeded arrival process (Poisson or deterministic-rate) regardless of
// completions, assigning them round-robin to clients; queueing delay
// (scheduled arrival → first client step), service latency (first step →
// completion) and in-flight depth are tracked separately, which is what
// exhibits the whole latency–throughput curve rather than its saturated
// end. The run is fully deterministic either way: the same protocol,
// configuration and seed produce the same events, the same latencies and
// the same history.
//
// The kernel is stepped under per-link conservative lookahead
// (sim.NewLookaheadRunner): one shard per server with clients striped
// across them, each shard advancing to its own null-message bound on
// Config.Workers goroutines, and a deterministic merge — the run is a
// function of the shard partition and seed only, so Workers=1 reproduces
// any Workers=N run byte for byte (the serial oracle guarantee).
// Report.Sharding records the run's shape, including the critical-path
// event count that bounds multi-core speedup, the null-message advances
// and per-shard blocked time.
//
// Closed-loop runs refill clients mid-window: the runner calls
// back into the driver after every client step (from the parallel
// phase, touching only that client's generator and counters), so a
// client is topped back up the moment a transaction completes rather
// than at the next round boundary. Config.Rebalance replaces the static
// client striping with a measured one: a short probe run counts events
// per process, then clients are re-striped longest-processing-time
// first onto the least-loaded shards — a pure function of the probe's
// deterministic counts, reported in Report.Sharding.Partition.
//
// Load runs use the kernel's load mode (tracing and payload retention
// disabled) so memory stays flat over millions of events.
package driver

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config parameterizes a load run.
type Config struct {
	// Clients is the number of concurrent closed-loop clients (default 2).
	Clients int
	// Pipeline is the maximum outstanding invocations per client
	// (default 1: classic closed loop; higher values pipeline into the
	// per-client invocation queue).
	Pipeline int
	// Txns is the total number of transactions across all clients
	// (default 100), distributed round-robin.
	Txns int
	// Mix is the workload (zero value: workload defaults).
	Mix workload.Mix
	// Seed derives the kernel RNG and all per-client generator streams.
	Seed int64
	// Servers, ObjectsPerServer, Replication and Latency size the
	// deployment (protocol.Config semantics; zero values use its
	// defaults).
	Servers          int
	ObjectsPerServer int
	Replication      int
	Latency          sim.LatencyModel
	// Topology selects a geo-asymmetric deployment (protocol.Config
	// semantics: sites, intra- vs cross-site latency distributions with
	// declared per-link floors; ignored when Latency is set). Under
	// sharded stepping the client striping becomes site-aware — every
	// shard stays single-site, so cross-site shard pairs keep the wide
	// cross-site lookahead bound. Nil is the uniform deployment.
	Topology *protocol.Topology
	// MaxEvents bounds kernel events for the whole run (default
	// 20_000·Txns + 200_000). The engine leaps parked waits (sim.Waker),
	// so a run that reaches the bound is stuck, not slow: it ends with
	// Incomplete > 0 instead of hanging.
	MaxEvents int
	// RecordHistory collects completed transactions into Report.History
	// for consistency checking. The BATCH checkers certify recorded
	// histories up to history.MaxTxns transactions; past that ceiling the
	// streaming ride-along session (Certify) is the only exact checker.
	RecordHistory bool
	// Certify runs ride-along certification: every committed transaction
	// is appended, as it is collected, to a streaming history.Session
	// checking the protocol's claimed consistency level, so the full run
	// is certified without re-solving the history afterwards and a
	// violation is pinned to its first offending commit while the run is
	// still in flight. Works in both load regimes, independent of
	// RecordHistory. The session retires committed prefixes of its
	// closure as the run proceeds, so certification memory follows the
	// active window, not Txns — runs far past history.MaxTxns certify
	// exactly (that constant still bounds the batch cross-checks
	// downstream consumers run on recorded histories). The verdict lands
	// in Report.Cert and the cumulative wall-clock spent inside the
	// session in Report.CertWall.
	Certify bool
	// ProbeStaleness samples visibility staleness while the run executes:
	// every probeStride-th committed write transaction is re-read through
	// a reserved frozen reader (protocol.Deployment.VisibleAll) on a
	// kernel snapshot taken at the first round boundary after it
	// completed, asking whether the values it wrote are already — and
	// still — the frozen-visible state. A
	// probe counts as stale when some written object returns a different
	// value (not yet replicated, or already overwritten by a concurrent
	// writer), and as incomplete when the frozen schedule cannot finish
	// the read (blocking protocols). Probes run on snapshots only, so the
	// measured run is untouched and stays deterministic; tallies land in
	// Report.Staleness.
	ProbeStaleness bool
	// Rate > 0 switches the run to open loop: Txns transactions are
	// injected at instants drawn from an arrival process of Rate
	// transactions per virtual second (Poisson by default), round-robin
	// across the clients, regardless of completions. Pipeline is ignored:
	// arrivals queue without bound at their client.
	Rate float64
	// DeterministicArrivals selects the fixed-interval arrival process
	// instead of Poisson (open loop only).
	DeterministicArrivals bool
	// LatencyFloor declares the lower bound of a custom Latency model
	// (ignored when Latency is nil — the default model declares 500µs).
	// The sharded engine sizes its conservative time windows by it; 0 is
	// always safe but shrinks windows to 1µs.
	LatencyFloor sim.Time
	// Workers is the size of the stepping pool (default 1): the process
	// set is partitioned into one shard per server (clients striped
	// across them) and per-shard lookahead windows execute on
	// min(Workers, active shards) goroutines. The schedule, history and
	// report are a function of the shard partition and seed only — NEVER
	// of Workers — so Workers=1 is the serial differential oracle for any
	// higher setting, byte for byte.
	Workers int
	// Nemesis schedules deterministic fault injection — server
	// crash/restart cycles and link partitions at fixed virtual instants —
	// into the measured phase (never into initialization). The schedule is
	// a pure function of Seed and the Nemesis configuration, so faulted
	// runs keep every determinism guarantee: same shard partition ⇒
	// byte-identical report at any Workers count. Nil runs
	// fault-free (and byte-identical to runs before the nemesis layer
	// existed).
	Nemesis *Nemesis
	// Rebalance replaces the static client→shard striping with a measured
	// one (driver.Run only): a short probe run on a separate
	// deployment counts events per process, then clients are assigned
	// longest-processing-time-first to the least-loaded shards. The plan
	// is a pure function of the probe's deterministic counts — worker
	// independence is unaffected — and is reported in
	// Report.Sharding.Partition with Rebalanced set.
	Rebalance bool
	// plan carries the measured shard assignment from Run's probe to
	// RunOn; nil means the static stripe.
	plan map[sim.ProcessID]int
}

func (c *Config) defaults() {
	if c.Clients <= 0 {
		c.Clients = 2
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 1
	}
	if c.Txns <= 0 {
		c.Txns = 100
	}
	if c.Servers <= 0 {
		c.Servers = 2
	}
	if c.ObjectsPerServer <= 0 {
		c.ObjectsPerServer = 2
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 20_000*c.Txns + 200_000
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
}

// Report is the outcome of one load run.
type Report struct {
	Protocol string
	Clients  int
	Pipeline int

	// Issued counts invoked transactions; Committed the ones that
	// completed without error; Rejected the ones the protocol refused
	// (unsupported shapes); Incomplete the ones still unfinished when the
	// run ended (0 on a healthy run).
	Issued     int
	Committed  int
	Rejected   int
	Incomplete int

	// Events is the number of kernel events executed (excluding
	// initialization); Duration the virtual time the measured phase
	// spanned.
	Events   int
	Duration sim.Time

	// Throughput is committed transactions per virtual second.
	Throughput float64
	// AbortRate is Rejected/Issued.
	AbortRate float64

	// Latency summarizes committed-transaction latency (virtual µs),
	// split by transaction class, plus mean read-round count. In open
	// loop it is end-to-end: measured from the scheduled arrival instant,
	// so client-side queueing counts against it.
	Latency   stats.Summary
	ROT       stats.Summary
	Write     stats.Summary
	ROTRounds float64

	// Open-loop additions (populated when Config.Rate > 0).
	// OfferedRate echoes the configured arrival rate (txn per virtual
	// second); QueueDelay is scheduled arrival → the client's first step
	// of the transaction; Service is first step → completion; InFlight
	// samples the total outstanding transactions at every injection.
	OfferedRate float64
	QueueDelay  stats.Summary
	Service     stats.Summary
	InFlight    stats.Summary

	// History holds the completed operations when Config.RecordHistory
	// was set (nil otherwise), with the deployment's initial values, ready
	// for history.Check*.
	History *history.History

	// Ride-along certification outcome (populated when Config.Certify was
	// set): CertLevel is the consistency level checked (the protocol's
	// claimed level), Cert the incremental session verdict — including
	// the first offending commit index and minimal witness prefix on
	// violation, plus the Retired/PeakWindow eviction counters — and
	// CertWall the cumulative wall-clock spent inside
	// Session.Append/Finish (the one nondeterministic field of a run).
	CertLevel string
	Cert      *history.SessionVerdict
	CertWall  time.Duration

	// Staleness tallies the frozen visibility probes of the run (nil
	// unless Config.ProbeStaleness).
	Staleness *StalenessReport

	// Nemesis is the fault-injection outcome (nil on fault-free runs, so
	// existing report serializations stay byte-diffable): applied fault
	// counts, unavailability, recovery latency and the degraded-phase
	// transaction slice.
	Nemesis *NemesisReport

	// Sharding carries the deterministic shape of the run: rounds
	// executed, per-round critical path and shard occupancy.
	Sharding *sim.ShardingStats
}

// StalenessReport tallies the outcome of the frozen visibility probes a
// run samples under Config.ProbeStaleness. Probes is the number of
// committed write transactions sampled (every probeStride-th, capped at
// probeCap); Stale counts probes where some written value was not the
// frozen-visible state of its object — a staleness signal covering both
// not-yet-replicated and already-overwritten values, not a consistency
// verdict (that is what Certify is for); Incomplete counts probes the
// frozen schedule could not finish, the signature of blocking designs.
// The Faulted* fields split out the probes whose sampled transaction's
// lifetime crossed a nemesis fault window (always 0 on fault-free runs),
// the same classification FaultedCommitted uses: an active partition is
// expected to drive FaultedStale up — values commit at the writer's side
// but cannot replicate — and the ratio recovering after heal is the
// staleness signature of a partition. A crash or replacement stalls the
// transactions that need the dead server instead; they complete in a
// burst at the restart, and their probes sample the window's aftermath —
// the stable frontier still catching up — which is where replacement
// staleness shows.
type StalenessReport struct {
	Probes     int
	Stale      int
	Incomplete int

	FaultedProbes     int `json:",omitempty"`
	FaultedStale      int `json:",omitempty"`
	FaultedIncomplete int `json:",omitempty"`
}

// probeStride and probeCap bound the staleness sampling: one probe per
// probeStride committed writes, at most probeCap probes per run — each
// probe clones the kernel, so unbounded sampling would dominate long
// runs.
const (
	probeStride = 16
	probeCap    = 64
)

func (r *Report) String() string {
	return fmt.Sprintf("%-12s clients=%d committed=%d/%d thr=%.1f txn/s p50=%d p99=%d",
		r.Protocol, r.Clients, r.Committed, r.Issued, r.Throughput, r.Latency.P50, r.Latency.P99)
}

// Run deploys p and drives a load run per cfg (closed loop by default,
// open loop when cfg.Rate > 0). With cfg.Rebalance it first runs a short
// probe on a separate deployment to measure the per-process load profile
// and re-stripes the clients accordingly.
func Run(p protocol.Protocol, cfg Config) (*Report, error) {
	cfg.defaults()
	if cfg.Rebalance {
		plan, err := probePlan(p, cfg)
		if err != nil {
			return nil, err
		}
		cfg.plan = plan
	}
	d, err := deploy(p, cfg)
	if err != nil {
		return nil, err
	}
	return RunOn(d, cfg)
}

// deploy builds and initializes a deployment for cfg.
func deploy(p protocol.Protocol, cfg Config) (*protocol.Deployment, error) {
	d := protocol.Deploy(p, protocol.Config{
		Servers:          cfg.Servers,
		ObjectsPerServer: cfg.ObjectsPerServer,
		Replication:      cfg.Replication,
		Clients:          cfg.Clients,
		Seed:             cfg.Seed,
		Latency:          cfg.Latency,
		LatencyFloor:     cfg.LatencyFloor,
		Topology:         cfg.Topology,
	})
	d.Kernel.SetTraceCap(-1)
	d.Kernel.SetPayloadRetention(false)
	if err := d.InitAll(400_000); err != nil {
		return nil, fmt.Errorf("driver: %s init: %w", p.Name(), err)
	}
	return d, nil
}

// probeTxns sizes the rebalance probe: an eighth of the run, at least two
// transactions per client, capped well below any real run's cost.
func probeTxns(cfg Config) int {
	n := cfg.Txns / 8
	if min := 2 * cfg.Clients; n < min {
		n = min
	}
	if n > 1024 {
		n = 1024
	}
	if n > cfg.Txns {
		n = cfg.Txns
	}
	if n < 1 {
		n = 1
	}
	return n
}

// probePlan runs the short probe under the static stripe and derives
// the measured assignment: servers stay pinned to their shard; every
// other process is placed longest-processing-time first onto the
// currently least-loaded shard (ties: lowest shard, then sorted process
// ID). Everything in sight is deterministic, so the plan is too.
func probePlan(p protocol.Protocol, cfg Config) (map[sim.ProcessID]int, error) {
	pc := cfg
	pc.Rebalance = false
	pc.plan = nil
	pc.Certify = false
	pc.RecordHistory = false
	pc.ProbeStaleness = false
	pc.Nemesis = nil // the probe measures the healthy load profile
	pc.Txns = probeTxns(cfg)
	d, err := deploy(p, pc)
	if err != nil {
		return nil, fmt.Errorf("driver: rebalance probe: %w", err)
	}
	r, err := startRun(d, pc)
	if err != nil {
		return nil, fmt.Errorf("driver: rebalance probe: %w", err)
	}
	if pc.Rate > 0 {
		_, err = r.runOpen()
	} else {
		_, err = r.runClosed()
	}
	if err != nil {
		return nil, fmt.Errorf("driver: rebalance probe: %w", err)
	}
	ev := r.runner.ProcessEvents()
	plan := make(map[sim.ProcessID]int, len(ev))
	n := d.Place.NumServers()
	load := make([]int, n)
	for _, sid := range d.Place.Servers() {
		s := d.Place.ServerIndex(sid)
		plan[sid] = s
		load[s] += ev[sid]
	}
	type item struct {
		pid sim.ProcessID
		n   int
	}
	var items []item
	for _, pid := range d.Kernel.Processes() {
		if _, isServer := plan[pid]; isServer {
			continue
		}
		items = append(items, item{pid, ev[pid]})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].n != items[j].n {
			return items[i].n > items[j].n
		}
		return items[i].pid < items[j].pid
	})
	for _, it := range items {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		plan[it.pid] = best
		load[best] += it.n
	}
	return plan, nil
}

// shardAssignment partitions a deployment into shards: one
// shard per server (the shard of partition k owns server k), with the
// client-side processes (workload clients, readers, initializers)
// striped across the shards in sorted process order — unless a measured
// plan from the rebalance probe overrides the stripe. On a multi-site
// topology the stripe is site-aware: each client-side process is placed
// round-robin among the shards of its OWN site, so every shard stays
// single-site and the lookahead engine's cross-site shard-pair bounds
// keep the wide cross-site floor instead of collapsing to the intra-site
// minimum. Either way the assignment is a pure function of
// deterministic inputs, so the sharded schedule is too.
func shardAssignment(d *protocol.Deployment, plan map[sim.ProcessID]int) (func(sim.ProcessID) int, int, error) {
	n := d.Place.NumServers()
	if plan != nil {
		for _, pid := range d.Kernel.Processes() {
			if s, ok := plan[pid]; !ok || s < 0 || s >= n {
				return nil, 0, fmt.Errorf("driver: rebalance plan does not cover process %s", pid)
			}
		}
		return func(pid sim.ProcessID) int { return plan[pid] }, n, nil
	}
	assign := make(map[sim.ProcessID]int, n)
	for _, sid := range d.Place.Servers() {
		assign[sid] = d.Place.ServerIndex(sid)
	}
	// Shards of each site, in server order; nil when the deployment is
	// uniform or some site has no server (then the plain stripe below
	// is the only sound choice).
	var bySite [][]int
	if t := d.Topo; t != nil && t.Sites > 1 {
		bySite = make([][]int, t.Sites)
		for _, sid := range d.Place.Servers() {
			s := t.SiteOf(sid)
			bySite[s] = append(bySite[s], d.Place.ServerIndex(sid))
		}
		for _, shards := range bySite {
			if len(shards) == 0 {
				bySite = nil
				break
			}
		}
	}
	i := 0
	next := make([]int, len(bySite)) // per-site round-robin cursor
	for _, pid := range d.Kernel.Processes() {
		if _, isServer := assign[pid]; isServer {
			continue
		}
		if bySite == nil {
			assign[pid] = i % n
			i++
			continue
		}
		s := d.Topo.SiteOf(pid)
		assign[pid] = bySite[s][next[s]%len(bySite[s])]
		next[s]++
	}
	return func(pid sim.ProcessID) int { return assign[pid] }, n, nil
}

// run carries the shared machinery of both load regimes.
type run struct {
	d      *protocol.Deployment
	cfg    Config
	rep    *Report
	cls    []protocol.Client
	gens   []*workload.Generator
	runner *sim.ShardedRunner

	lat, rot, wr *stats.Collector
	queue, svc   *stats.Collector
	rounds, nROT int
	// Closed-loop quota bookkeeping, per client. The mid-window refill
	// hook mutates issued[i] from worker goroutines — safely, because
	// client i lives on exactly one shard and the hook touches only
	// index-i state (the runner's merge orders everything else).
	quota, issued []int
	clientIdx     map[sim.ProcessID]int
	// injectAt maps a transaction to its scheduled open-loop arrival
	// instant (nil in closed loop). Entries are dropped on collection so
	// memory stays flat over long runs.
	injectAt map[model.TxnID]int64
	// sess is the ride-along certification session (nil unless
	// Config.Certify); sealed reports it refused an append — the history
	// is already refuted and later commits need not be fed.
	sess     *history.Session
	sealed   bool
	certWall time.Duration
	// stale accumulates the frozen visibility probes (nil unless
	// Config.ProbeStaleness and the deployment reserved a reader);
	// writesSeen drives the sampling stride.
	stale      *StalenessReport
	writesSeen int
	// nem threads the armed fault schedule through the run (nil unless
	// Config.Nemesis); injHorizon is the open-loop injection horizon the
	// fault-aware engineRun folds into its segment bounds (0 in closed
	// loop and while draining).
	nem        *nemesisState
	injHorizon sim.Time
	// held is each client's results taken but not yet drained: completed
	// at or past the last collect's floor (taken counts all ever taken,
	// backlog the most held at once); done is collect's scratch.
	held           [][]*model.Result
	taken, backlog int
	done           []*model.Result
}

// drainAll is the floor of a collect that leaves nothing held.
const drainAll = sim.Time(1<<63 - 1)

func newRun(d *protocol.Deployment, cfg Config) *run {
	r := &run{
		d: d, cfg: cfg,
		rep:   &Report{Protocol: d.Proto.Name(), Clients: cfg.Clients, Pipeline: cfg.Pipeline},
		cls:   make([]protocol.Client, cfg.Clients),
		gens:  make([]*workload.Generator, cfg.Clients),
		held:  make([][]*model.Result, cfg.Clients),
		lat:   stats.NewCollector(),
		rot:   stats.NewCollector(),
		wr:    stats.NewCollector(),
		queue: stats.NewCollector(),
		svc:   stats.NewCollector(),
	}
	objects := d.Place.Objects()
	// Independent deterministic generator stream per client, so the
	// workload each client submits does not depend on scheduling.
	for i := 0; i < cfg.Clients; i++ {
		r.cls[i] = d.Client(d.Clients[i])
		r.gens[i] = workload.NewGenerator(cfg.Mix, objects, cfg.Seed*1_000_003+int64(i)*7919+11)
	}
	if cfg.RecordHistory {
		r.rep.History = history.New(d.Initials())
	}
	if cfg.Certify {
		r.rep.CertLevel = d.Proto.Claims().Consistency
		// Streaming session with every workload client declared up front:
		// eviction may begin before a slow client's first commit is
		// collected, and an undeclared client arriving after the first
		// sweep would be refused.
		names := make([]string, cfg.Clients)
		for i := 0; i < cfg.Clients; i++ {
			names[i] = string(d.Clients[i])
		}
		r.sess = history.NewStreamingSession(d.Initials(), r.rep.CertLevel, names)
	}
	if cfg.ProbeStaleness && len(d.Readers) > 0 {
		r.stale = &StalenessReport{}
		r.rep.Staleness = r.stale
	}
	return r
}

func (r *run) nextTxn(i int) *model.Txn {
	t := r.gens[i].Next(string(r.d.Clients[i]))
	if !t.IsReadOnly() && !r.d.Proto.Claims().MultiWriteTxn {
		t = r.gens[i].NextSingleWrite(string(r.d.Clients[i]))
	}
	return t
}

// take moves every client's newly finished results into the run's
// backlog, unprocessed, and — when probing — ends with at most one
// staleness probe: if the committed-write count crossed a probeStride
// boundary among them, of the most recent committed write taken. The
// closed loop calls it at the first round boundary after a completion
// (probeDue hands back there), the nearest consistent cut to the write.
func (r *run) take() {
	var probe *model.Result
	due := false
	for i, cl := range r.cls {
		fin := cl.TakeFinished()
		r.held[i] = append(r.held[i], fin...)
		r.taken += len(fin)
		if !r.probing() {
			continue
		}
		for _, res := range fin {
			if !res.OK() || res.Txn.IsReadOnly() {
				continue
			}
			due = due || r.writesSeen%probeStride == 0
			r.writesSeen++
			if probe == nil || res.Completed >= probe.Completed {
				probe = res
			}
		}
	}
	if due {
		r.probeStaleness(probe)
	}
}

// probing reports that the run samples staleness and is still below
// probeCap. While it does, results are taken only where probeDue hands
// back: which probe runs depends on the batches take sees.
func (r *run) probing() bool { return r.stale != nil && r.stale.Probes < probeCap }

// probeDue reports that a probing run has finished transactions the
// driver has not taken: the closed loop then hands back at this round
// boundary, so a probe samples the kernel right after the completion
// instead of at the end of the run or fault segment (where every sampled
// write has long been overwritten). A round boundary is a consistent cut
// — conservative lookahead never delivers a message before it is sent —
// and returning there changes nothing about the schedule. Once the clock
// has reached a pending fault's instant the run holds on until the fault
// is applied: a shard draining a step chain may carry the clock past the
// instant while others still hold events before it, and re-entering
// engineRun there would apply the fault early.
func (r *run) probeDue() bool {
	if !r.probing() {
		return false
	}
	if r.nem != nil {
		if f := r.nem.next(); f != nil && f.At <= r.d.Kernel.Now() {
			return false
		}
	}
	finished := -r.taken
	for i, cl := range r.cls {
		finished += r.issued[i] - cl.Outstanding()
	}
	return finished > 0
}

// collect takes what has finished and drains, in completion order, the
// held results completed before floor. Nothing can still complete below
// sim.ShardedRunner.Floor, so a run's drains concatenate to one stable
// sort of its results by Completed — the ride-along session and the
// nemesis recovery marks read the drain as a timeline — with ties in
// client-index-then-finish order: a function of seed and partition only.
func (r *run) collect(floor sim.Time) {
	r.take()
	r.backlog = max(r.backlog, r.taken-r.rep.Committed-r.rep.Rejected)
	done := r.done[:0]
	for i, held := range r.held {
		// A client finishes in clock order: what is due is a prefix.
		n := 0
		for n < len(held) && held[n].Completed < int64(floor) {
			n++
		}
		done = append(done, held[:n]...)
		r.held[i] = slices.Delete(held, 0, n)
	}
	r.done = done
	slices.SortStableFunc(done, func(a, b *model.Result) int { return cmp.Compare(a.Completed, b.Completed) })
	for _, res := range done {
		inject, open := int64(0), false
		if r.injectAt != nil {
			if at, found := r.injectAt[res.Txn.ID]; found {
				inject, open = at, true
				delete(r.injectAt, res.Txn.ID)
			}
		}
		if r.nem != nil {
			r.nem.observe(res, r.d.Place)
		}
		if !res.OK() {
			r.rep.Rejected++
			continue
		}
		r.rep.Committed++
		l := res.Completed - res.Invoked
		if open {
			// End-to-end from the scheduled arrival; the split into
			// queueing and service goes to the dedicated collectors.
			r.queue.Add(res.Invoked - inject)
			r.svc.Add(l)
			l = res.Completed - inject
		}
		r.lat.Add(l)
		if res.Txn.IsReadOnly() {
			r.rot.Add(l)
			r.rounds += res.Rounds
			r.nROT++
		} else {
			r.wr.Add(l)
		}
		if r.rep.History != nil || r.sess != nil {
			rec := history.NewRecord(res)
			if r.rep.History != nil {
				r.rep.History.Add(rec)
			}
			if r.sess != nil && !r.sealed {
				t0 := time.Now()
				clean := r.sess.Append(rec)
				r.certWall += time.Since(t0)
				if !clean {
					r.sealed = true
				}
			}
		}
	}
}

// probeStaleness samples one committed write transaction: a frozen
// reader on a kernel snapshot re-reads every object the transaction
// wrote and the tallies record whether its values are the visible state
// right now. Runs on clones only — the measured run is untouched.
func (r *run) probeStaleness(res *model.Result) {
	want := make(map[string]model.Value, len(res.Txn.Writes))
	for _, w := range res.Txn.Writes {
		want[w.Object] = w.Value // last write wins, matching the checkers
	}
	vis := r.d.VisibleAll(r.d.Readers[0], want, true)
	r.stale.Probes++
	if vis.Incomplete {
		r.stale.Incomplete++
	}
	if !vis.Visible {
		r.stale.Stale++
	}
	if r.nem != nil && r.nem.overlaps(res.Invoked, res.Completed) {
		// The sampled transaction's lifetime crossed a fault window: the
		// degraded-phase slice (same rule as FaultedCommitted).
		r.stale.FaultedProbes++
		if vis.Incomplete {
			r.stale.FaultedIncomplete++
		}
		if !vis.Visible {
			r.stale.FaultedStale++
		}
	}
}

// finish summarizes the run into the report; the error is the kernel's
// message-conservation check (sent = delivered + in flight + lost).
func (r *run) finish(start sim.Time) (*Report, error) {
	rep := r.rep
	rep.Duration = r.d.Kernel.Now() - start
	for _, cl := range r.cls {
		rep.Incomplete += cl.Outstanding()
	}
	rep.Latency = r.lat.Summarize()
	rep.ROT = r.rot.Summarize()
	rep.Write = r.wr.Summarize()
	rep.QueueDelay = r.queue.Summarize()
	rep.Service = r.svc.Summarize()
	if r.nROT > 0 {
		rep.ROTRounds = float64(r.rounds) / float64(r.nROT)
	}
	if rep.Duration > 0 {
		rep.Throughput = float64(rep.Committed) / (float64(rep.Duration) / 1e6)
	}
	if rep.Issued > 0 {
		rep.AbortRate = float64(rep.Rejected) / float64(rep.Issued)
	}
	if r.sess != nil {
		t0 := time.Now()
		v := r.sess.Finish()
		r.certWall += time.Since(t0)
		rep.Cert = &v
		rep.CertWall = r.certWall
	}
	st := r.runner.Stats()
	st.Rebalanced = r.cfg.plan != nil
	rep.Sharding = &st
	if r.nem != nil {
		rep.Nemesis = r.nem.finish(r.d.Kernel, start)
	}
	return rep, r.d.Kernel.CheckConservation()
}

// RunOn drives a load run against an existing, initialized deployment.
// The deployment must have at least cfg.Clients workload clients.
func RunOn(d *protocol.Deployment, cfg Config) (*Report, error) {
	r, err := startRun(d, cfg)
	if err != nil {
		return nil, err
	}
	if r.cfg.Rate > 0 {
		return r.runOpen()
	}
	return r.runClosed()
}

// startRun validates cfg against the deployment and assembles the run
// and its sharded runner.
func startRun(d *protocol.Deployment, cfg Config) (*run, error) {
	cfg.defaults()
	if len(d.Clients) < cfg.Clients {
		return nil, fmt.Errorf("driver: deployment has %d clients, need %d", len(d.Clients), cfg.Clients)
	}
	if cfg.Rebalance && cfg.plan == nil {
		return nil, fmt.Errorf("driver: Rebalance needs the probe deployment driver.Run builds; call Run, not RunOn")
	}
	r := newRun(d, cfg)
	shardOf, shards, err := shardAssignment(d, cfg.plan)
	if err != nil {
		return nil, err
	}
	if r.runner, err = sim.NewLookaheadRunner(d.Kernel, shardOf, shards, cfg.Workers); err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	if cfg.Nemesis != nil {
		faults, err := cfg.Nemesis.build(d, cfg.Seed, d.Kernel.Now())
		if err != nil {
			return nil, err
		}
		r.nem = newNemesisState(faults)
	}
	return r, nil
}

// refillClient tops one client up to its pipeline depth. It doubles as
// the runner's mid-window refill hook, where it runs on a worker
// goroutine inside the parallel phase: everything it touches — the
// client's queue, its generator stream, its quota slot — is owned by
// exactly one shard, and the kernel is deliberately not told (the
// invoke annotation is a trace event; load runs drop those anyway).
func (r *run) refillClient(pid sim.ProcessID, _ sim.Time) {
	i, ok := r.clientIdx[pid]
	if !ok {
		return
	}
	cl := r.cls[i]
	for r.issued[i] < r.quota[i] && cl.Outstanding() < r.cfg.Pipeline {
		cl.Invoke(r.nextTxn(i))
		r.issued[i]++
	}
}

// runClosed keeps every client topped up to its pipeline depth.
func (r *run) runClosed() (*Report, error) {
	d, cfg, rep := r.d, r.cfg, r.rep
	r.quota = make([]int, cfg.Clients)
	r.issued = make([]int, cfg.Clients)
	r.clientIdx = make(map[sim.ProcessID]int, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		r.quota[i] = cfg.Txns / cfg.Clients
		if i < cfg.Txns%cfg.Clients {
			r.quota[i]++
		}
		r.clientIdx[d.Clients[i]] = i
	}
	// Mid-window refill: completions re-arm their client inside the
	// round instead of waiting for the next engine exit.
	r.runner.SetRefill(r.refillClient)
	// refill tops every client up between engine runs (the initial fill;
	// after it the hook has usually left nothing to do).
	refill := func() {
		for i := range r.cls {
			r.refillClient(d.Clients[i], d.Kernel.Now())
		}
	}
	// stop is the engine's between-rounds predicate. It hands back the
	// moment some client has spare pipeline capacity (rare: the hook keeps
	// them topped up) or a probe is due; otherwise it drains, so the
	// backlog stays a few rounds deep instead of the run's length.
	stop := func(*sim.Kernel) bool {
		for i, cl := range r.cls {
			if r.issued[i] < r.quota[i] && cl.Outstanding() < cfg.Pipeline {
				return true
			}
		}
		if r.probeDue() {
			return true
		}
		if !r.probing() {
			r.collect(r.runner.Floor())
		}
		return false
	}

	start := d.Kernel.Now()
	for {
		refill()
		n := r.engineRun(stop, cfg.MaxEvents-rep.Events)
		rep.Events += n
		r.collect(r.runner.Floor())
		// n == 0 with nothing enabled means the run is fully drained.
		if n == 0 || rep.Events >= cfg.MaxEvents {
			break
		}
	}
	r.collect(drainAll)
	for _, n := range r.issued {
		rep.Issued += n
	}
	return r.finish(start)
}

// runOpen injects transactions at the arrival process's instants,
// regardless of completions. The engine runs with its horizon set to
// the next arrival so virtual time never leaps past an injection; at
// the horizon the driver advances the clock to the scheduled instant
// and invokes the transaction at the next client round-robin. (The
// clock may already sit a few steps past the instant — window
// granularity, see sim.ShardedRunner.SetHorizon — so the invocation
// happens at the first actionable instant at or after it; queueing
// delay is measured from the scheduled instant.)
func (r *run) runOpen() (*Report, error) {
	d, cfg, rep := r.d, r.cfg, r.rep
	rep.OfferedRate = cfg.Rate
	r.injectAt = make(map[model.TxnID]int64, cfg.Clients*4)
	inFlight := stats.NewCollector()

	start := d.Kernel.Now()
	var arr sim.ArrivalProcess
	if cfg.DeterministicArrivals {
		arr = sim.NewUniformArrivals(cfg.Rate, start)
	} else {
		arr = sim.NewPoissonArrivals(cfg.Rate, cfg.Seed*999_983+77, start)
	}

	for injected := 0; injected < cfg.Txns && rep.Events < cfg.MaxEvents; injected++ {
		at := arr.Next()
		// Run everything scheduled strictly before the arrival (faults
		// due before it included, via the fault-aware dispatch).
		r.injHorizon = at
		rep.Events += r.engineRun(nil, cfg.MaxEvents-rep.Events)
		r.collect(drainAll)
		d.Kernel.AdvanceTo(at)
		i := injected % cfg.Clients
		tid := d.Invoke(d.Clients[i], r.nextTxn(i))
		// Lift the owning shard's persistent clock to the scheduled
		// instant so the injection is never stepped early.
		r.runner.NotifyInvoked(d.Clients[i], at)
		r.injectAt[tid] = int64(at)
		rep.Issued++
		depth := 0
		for _, cl := range r.cls {
			depth += cl.Outstanding()
		}
		inFlight.Add(int64(depth))
	}
	// Drain: no more arrivals, run until every client is idle.
	r.injHorizon = 0
	rep.Events += r.engineRun(nil, cfg.MaxEvents-rep.Events)
	r.collect(drainAll)
	r.rep.InFlight = inFlight.Summarize()
	return r.finish(start)
}
