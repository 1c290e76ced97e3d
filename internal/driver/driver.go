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
// collected, on a goroutine beside the simulation, and a violating run is
// pinned to its first offending commit (with the minimal witness prefix)
// in Report.Cert. The driver owns the cross-check too: a certified run
// of at most history.MaxTxns transactions records its history and
// re-solves it with the batch solver while the session drains, and fails
// if the two disagree.
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
// (sim.NewLookaheadRunner) on the deployment's partition
// (protocol.Deployment.Partition: one shard per server with clients
// striped across them), each shard advancing to its own null-message
// bound on Config.Workers goroutines, and a deterministic merge — the
// run is a function of the shard partition and seed only, so Workers=1
// reproduces any Workers=N run byte for byte (the serial oracle
// guarantee).
// Report.Sharding records the run's shape, including the critical-path
// event count that bounds multi-core speedup, the null-message advances
// and per-shard blocked time.
//
// A closed-loop run fills its clients once and makes one engine run.
// Clients refill mid-window: the runner calls back into the driver after
// every client step (from the parallel phase, touching only that
// client's generator and counters), so a client is topped back up the
// moment a transaction completes rather than at the next round boundary.
// Between rounds the driver drains finished results below the runner's
// floor and takes its staleness probes, holding both while a fault is
// due but not yet applied.
//
// Load runs use the kernel's load mode (tracing and payload retention
// disabled) so memory stays flat over millions of events.
package driver

import (
	"fmt"
	"slices"
	"sort"

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
	// Servers, ObjectsPerServer and Replication size the deployment
	// (protocol.Config semantics; zero values use its defaults).
	Servers          int
	ObjectsPerServer int
	Replication      int
	// Topology selects a geo-asymmetric deployment (protocol.Config
	// semantics: sites, intra- vs cross-site latency distributions with
	// declared per-link floors). Under
	// sharded stepping the client striping becomes site-aware — every
	// shard stays single-site, so cross-site shard pairs keep the wide
	// cross-site lookahead bound. Nil is the uniform deployment.
	Topology *protocol.Topology
	// MaxEvents bounds kernel events for the whole run (default
	// 20_000·Txns + 200_000). The engine leaps parked waits (sim.Waker),
	// so a run that reaches the bound is stuck, not slow: it ends with
	// Incomplete > 0 instead of hanging.
	MaxEvents int
	// RecordHistory hands the completed transactions out in
	// Report.History for consistency checking. The BATCH checkers certify
	// recorded histories up to history.MaxTxns transactions; past that
	// ceiling the streaming ride-along session (Certify) is the only exact
	// checker. It does not decide the cross-check: Certify does.
	RecordHistory bool
	// Certify runs ride-along certification: every committed transaction
	// is handed, as it is collected, to a streaming history.Session on its
	// own goroutine, checking the protocol's claimed consistency level, so
	// the session runs beside the simulation and a violation is pinned to
	// its first offending commit. Works in both load regimes. The session
	// retires committed prefixes of its closure once their order is
	// decided, so runs past history.MaxTxns certify exactly. Memory
	// follows the active window only where retirement happens: at 2
	// clients nearly everything retires, at 8 or more closed-loop clients
	// nothing does and the window is the whole run. A run of at most
	// history.MaxTxns transactions also records its history (kept from
	// the report unless RecordHistory) and re-solves it with the batch
	// solver while the session drains, returning an error if the two
	// verdicts disagree. The verdict lands in Report.Cert.
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
	// violation, plus the Retired/PeakWindow eviction counters.
	CertLevel string
	Cert      *history.SessionVerdict

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
// open loop when cfg.Rate > 0).
func Run(p protocol.Protocol, cfg Config) (*Report, error) {
	cfg.defaults()
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
		Topology:         cfg.Topology,
	})
	d.Kernel.SetTraceCap(-1)
	d.Kernel.SetPayloadRetention(false)
	if err := d.InitAll(400_000); err != nil {
		return nil, fmt.Errorf("driver: %s init: %w", p.Name(), err)
	}
	return d, nil
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
	// injectAt maps a transaction to its scheduled open-loop arrival
	// instant (nil in closed loop). Entries are dropped on collection so
	// memory stays flat over long runs.
	injectAt map[model.TxnID]int64
	// cert is the ride-along certification session on its own goroutine
	// (nil unless Config.Certify).
	cert *certifier
	// hist records the run for Report.History and the batch cross-check
	// (nil when neither wants it).
	hist *history.History
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
	// held is the results taken but not yet drained (completed at or past
	// the last collect's floor), in drain order: by completion instant,
	// then client index, then finish order. taken counts all ever taken,
	// backlog the most held at once; fin is take's scratch.
	held           []heldResult
	taken, backlog int
	fin            []*model.Result
	// marked flags the clients that stepped since the last take. Results
	// are made only inside a client's Step, so take asks no other client.
	// The refill hook sets marked[i] from client i's shard, like issued[i].
	marked []bool
}

// heldResult is a result taken from client index client.
type heldResult struct {
	res    *model.Result
	client int
}

// drainAll is the floor of a collect that leaves nothing held.
const drainAll = sim.Time(1<<63 - 1)

func newRun(d *protocol.Deployment, cfg Config) *run {
	r := &run{
		d: d, cfg: cfg,
		rep:    &Report{Protocol: d.Proto.Name(), Clients: cfg.Clients, Pipeline: cfg.Pipeline},
		cls:    make([]protocol.Client, cfg.Clients),
		gens:   make([]*workload.Generator, cfg.Clients),
		marked: make([]bool, cfg.Clients),
		lat:    stats.NewCollector(),
		rot:    stats.NewCollector(),
		wr:     stats.NewCollector(),
		queue:  stats.NewCollector(),
		svc:    stats.NewCollector(),
	}
	objects := d.Place.Objects()
	// Independent deterministic generator stream per client, so the
	// workload each client submits does not depend on scheduling.
	for i := 0; i < cfg.Clients; i++ {
		r.cls[i] = d.Client(d.Clients[i])
		r.gens[i] = workload.NewGenerator(cfg.Mix, objects, cfg.Seed*1_000_003+int64(i)*7919+11)
	}
	if cfg.RecordHistory || cfg.Certify && cfg.Txns <= history.MaxTxns {
		r.hist = history.New(d.Initials())
	}
	if cfg.Certify {
		r.rep.CertLevel = d.Proto.Claims().Consistency
	}
	if cfg.ProbeStaleness && len(d.Readers) > 0 {
		r.stale = &StalenessReport{}
		r.rep.Staleness = r.stale
	}
	return r
}

func (r *run) nextTxn(i int) *model.Txn {
	return r.gens[i].NextFor(string(r.d.Clients[i]), r.d.Proto.Claims().MultiWriteTxn)
}

// take moves the marked clients' newly finished results into the run's
// backlog, unprocessed, and — when probing — ends with at most one
// staleness probe: if the committed-write count crossed a probeStride
// boundary among them, of the most recent committed write taken. The
// closed loop takes at every round boundary, so a probe runs at the
// first one after its write: the nearest consistent cut to it. Clients
// are visited in index order and each result is inserted after every held
// one that completed earlier, or at the same instant on a client with an
// index no higher, so the backlog stays in drain order.
func (r *run) take() {
	var probe *model.Result
	due := false
	for i, cl := range r.cls {
		if !r.marked[i] {
			continue
		}
		r.marked[i] = false
		r.fin = cl.TakeFinished(r.fin[:0])
		r.taken += len(r.fin)
		for _, res := range r.fin {
			at := sort.Search(len(r.held), func(j int) bool {
				h := r.held[j]
				return h.res.Completed > res.Completed || h.res.Completed == res.Completed && h.client > i
			})
			r.held = slices.Insert(r.held, at, heldResult{res, i})
			if !r.probing() || !res.OK() || res.Txn.IsReadOnly() {
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
// probeCap. Which probe runs depends on the batches take sees, so the
// closed loop takes at every round boundary, except while faultDue holds.
func (r *run) probing() bool { return r.stale != nil && r.stale.Probes < probeCap }

// faultDue reports that the clock has reached a pending fault's instant
// before the fault was applied: a shard draining a step chain may carry
// the clock past the instant while others still hold events before it.
// A probe taken then would sample a kernel the fault should already have
// changed, so the closed loop holds its results until engineRun applies
// it.
func (r *run) faultDue() bool {
	if r.nem == nil {
		return false
	}
	f := r.nem.next()
	return f != nil && f.At <= r.d.Kernel.Now()
}

// collect takes what has finished and drains, in completion order, the
// held results completed before floor. Nothing can still complete below
// sim.ShardedRunner.Floor, so a run's drains concatenate to one stable
// sort of its results by Completed — the ride-along session and the
// nemesis recovery marks read the drain as a timeline — with ties in
// client-index-then-finish order: a function of seed and partition only.
// Both loops' refill hooks mark the client that stepped, so a collect
// costs the marked clients and the results it holds, not one call per
// client.
func (r *run) collect(floor sim.Time) {
	r.take()
	r.backlog = max(r.backlog, len(r.held))
	n := sort.Search(len(r.held), func(j int) bool { return r.held[j].res.Completed >= int64(floor) })
	for _, h := range r.held[:n] {
		res := h.res
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
		if r.hist != nil || r.cert != nil {
			rec := history.NewRecord(res)
			if r.hist != nil {
				r.hist.Add(rec)
			}
			if r.cert != nil {
				r.cert.recs <- rec
			}
		}
	}
	r.held = slices.Delete(r.held, 0, n)
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
	vis := r.d.VisibleAll(r.d.Readers[0], want)
	r.stale.Probes++
	if vis.Incomplete {
		r.stale.Incomplete++
	}
	if vis.Counterexample != nil {
		r.stale.Stale++
	}
	if r.nem != nil && r.nem.overlaps(res.Invoked, res.Completed) {
		// The sampled transaction's lifetime crossed a fault window: the
		// degraded-phase slice (same rule as FaultedCommitted).
		r.stale.FaultedProbes++
		if vis.Incomplete {
			r.stale.FaultedIncomplete++
		}
		if vis.Counterexample != nil {
			r.stale.FaultedStale++
		}
	}
}

// finish summarizes the run into the report. The error is the kernel's
// message-conservation check (sent = delivered + in flight + lost) or, on
// a certified run, the session and batch verdicts disagreeing.
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
	st := r.runner.Stats()
	rep.Sharding = &st
	if r.nem != nil {
		rep.Nemesis = r.nem.finish(r.d.Kernel, start)
	}
	err := r.d.Kernel.CheckConservation()
	if r.cert != nil {
		if e := crossCheck(rep, r.hist, r.stopCert); err == nil {
			err = e
		}
	}
	if r.cfg.RecordHistory {
		rep.History = r.hist
	}
	return rep, err
}

// certQueue is the capacity of the session's feed. A run the batch solver
// can cross-check fits in it whole, so there the simulation never waits
// for the session and the batch re-solve starts the moment the simulation
// ends; past that, the run holds at most certQueue records the session
// has not taken.
const certQueue = history.MaxTxns

// certifier is the ride-along session on its own goroutine, fed the run's
// records in drain order. Records are deep copies the run never writes
// again, so the two goroutines share them read-only.
type certifier struct {
	recs    chan *history.TxnRecord
	done    chan struct{}
	verdict history.SessionVerdict
}

// startCertifier starts a streaming session at level with every workload
// client declared up front: eviction may begin before a slow client's
// first commit is collected, and an undeclared client arriving after the
// first sweep would be refused.
func startCertifier(d *protocol.Deployment, clients int, level string) *certifier {
	names := make([]string, clients)
	for i := range names {
		names[i] = string(d.Clients[i])
	}
	sess := history.NewStreamingSession(d.Initials(), level, names)
	c := &certifier{recs: make(chan *history.TxnRecord, certQueue), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for rec := range c.recs {
			if sess == nil {
				continue // the session refused an append: the run is refuted
			}
			if !sess.Append(rec) {
				// Sealed: take the verdict now and let the session go, so
				// its memory is free for the batch cross-check.
				c.verdict, sess = sess.Finish(), nil
			}
		}
		if sess != nil {
			c.verdict = sess.Finish()
		}
	}()
	return c
}

// stopCert closes the session's feed, waits for the session to drain and
// lands its verdict in the report.
func (r *run) stopCert() {
	close(r.cert.recs)
	<-r.cert.done
	r.rep.Cert = &r.cert.verdict
}

// crossCheck re-solves h, the run's recorded history, with the batch
// solver, then calls drain to land the session's verdict in rep, and
// compares the two: the re-solve runs while the session drains. The
// verdicts disagreeing means a checker bug, never a measurement, so it is
// an error and no grid can publish either verdict. With no history, or
// one past history.MaxTxns (the batch solver refuses it), the session's
// verdict stands alone.
func crossCheck(rep *Report, h *history.History, drain func()) error {
	if h == nil || h.Len() > history.MaxTxns {
		drain()
		return nil
	}
	batch := history.CheckBatch(h, rep.CertLevel)
	drain()
	if batch.OK != rep.Cert.OK {
		return fmt.Errorf(
			"driver: incremental and batch certification disagree for %s at %s: session %v (%s), batch %v (%s)",
			rep.Protocol, rep.CertLevel, rep.Cert.OK, rep.Cert.Reason, batch.OK, batch.Reason)
	}
	return nil
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
	r := newRun(d, cfg)
	shardOf, shards := d.Partition()
	var err error
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
	// Started last, so no error above leaves it running; finish stops it.
	if cfg.Certify {
		r.cert = startCertifier(d, cfg.Clients, r.rep.CertLevel)
	}
	return r, nil
}

// refillClient marks one client for the next take and tops it up to its
// pipeline depth. It doubles as the runner's mid-window refill hook, where
// it runs on a worker goroutine inside the parallel phase: everything it
// touches — the client's queue, its generator stream, its quota slot and
// mark — is owned by exactly one shard, and the kernel is deliberately not
// told (the invoke annotation is a trace event; load runs drop those
// anyway).
func (r *run) refillClient(i int, _ sim.Time) {
	r.marked[i] = true
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
	for i := 0; i < cfg.Clients; i++ {
		r.quota[i] = cfg.Txns / cfg.Clients
		if i < cfg.Txns%cfg.Clients {
			r.quota[i]++
		}
	}
	// Fill every client once; after that, completions re-arm their
	// client inside the round (the mid-window refill hook).
	r.runner.SetRefill(d.Clients, r.refillClient)
	for i := range r.cls {
		r.refillClient(i, d.Kernel.Now())
	}
	start := d.Kernel.Now()
	// Between rounds the run drains below the runner's floor, so the
	// backlog stays a few rounds deep instead of the run's length, and a
	// probe samples the kernel at the first round boundary after its
	// write — a consistent cut: conservative lookahead never delivers a
	// message before it is sent. Results are held while a fault is due.
	rep.Events = r.engineRun(func(*sim.Kernel) bool {
		if !r.faultDue() {
			r.collect(r.runner.Floor())
		}
		return false
	}, cfg.MaxEvents)
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
	// Mark each client after its steps, so collect takes from those only.
	r.runner.SetRefill(d.Clients, func(i int, _ sim.Time) { r.marked[i] = true })

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
		// Clients are never faulted and every invoked transaction ends as
		// one result, all taken by the collect above: the rest are in flight.
		inFlight.Add(int64(rep.Issued - r.taken))
	}
	// Drain: no more arrivals, run until every client is idle.
	r.injHorizon = 0
	rep.Events += r.engineRun(nil, cfg.MaxEvents-rep.Events)
	r.collect(drainAll)
	r.rep.InFlight = inFlight.Summarize()
	return r.finish(start)
}
