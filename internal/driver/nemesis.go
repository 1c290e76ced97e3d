package driver

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Nemesis schedules deterministic fault injection into a load run: server
// crash/restart cycles, directed link partitions, replica replacements
// and coordinated cluster restores applied at fixed virtual instants. The
// schedule is a pure function of the run seed and this configuration —
// never of the worker count — so a faulted run replays byte-for-byte, and
// ride-along certification keeps working across the faults (a violation
// exposed by a fault is pinned by Report.Cert.FirstViolation like any
// other).
//
// Faults apply between runner segments, never while shards are stepping;
// that quantizes fault instants to round boundaries, deterministically.
type Nemesis struct {
	// Crashes is the number of crash→restart cycles to schedule. Targets
	// rotate pseudo-randomly (seeded) over the servers; clients are never
	// crashed (the driver holds direct references to them).
	Crashes int
	// Lose selects volatile-state loss for the scheduled crashes: the
	// target's income buffer is discarded at crash time and the process is
	// rebuilt by its recovery hook at restart (factory-fresh unless the
	// protocol implements sim.Recoverable). False models persistence —
	// state and inbox survive, making the outage indistinguishable from a
	// long network delay.
	Lose bool
	// Partitions is the number of partition→heal cycles. Each cut splits
	// the deployment into two halves (by site on a multi-site topology,
	// by trailing-index parity otherwise) and severs every link between
	// them, both directions.
	Partitions int
	// ServersOnly restricts partition groups to the servers: client↔server
	// links stay up, only server↔server replication/gossip traffic is cut.
	// This is the staleness scenario — reads still complete, but return
	// un-replicated values.
	ServersOnly bool
	// Replaces is the number of replica-replacement cycles: a server is
	// killed and a fresh process adopts its ID-space and shard, re-syncs
	// from the durable image and live peers (protocol.Deployment's
	// AdoptShard hook), and starts serving only once caught up — the
	// driver schedules the companion restart a deterministic sync
	// duration (syncBase + syncPerVersion × versions adopted) after the
	// replacement. Targets rotate pseudo-randomly (seeded) over the
	// servers, like Crashes. Lose selects disk loss: the replacement owns
	// only what live peers transfer.
	Replaces int
	// Restores is the number of coordinated whole-cluster restore cycles:
	// every server stops together, each rebuilds from its latest durable
	// snapshot, and the cluster comes back as one at a deterministic
	// restore duration derived from the total version count. Lose wipes
	// the snapshots — total data loss, which certification must catch.
	Restores int
	// Start is the virtual instant (relative to the measured run start) of
	// the first fault cycle; Period the spacing between cycle starts;
	// Duration the downtime of each cycle (crash→restart, cut→heal).
	// Within cycle i, crashes fire at Start+i·Period, replacements at
	// Start+Period/4+i·Period, partitions at Start+Period/2+i·Period and
	// restores at Start+3·Period/4+i·Period, so combined schedules
	// interleave instead of colliding. Zero values default to
	// Start=4000µs, Period=30000µs, Duration=8000µs.
	Start    sim.Time
	Period   sim.Time
	Duration sim.Time
	// Schedule, when non-empty, is an explicit fault list that replaces
	// the generated one entirely (Crashes/Partitions/Replaces/Restores
	// and the timing knobs are ignored). At instants are relative to the
	// measured run start. Crash/restart/replace targets must be servers;
	// a restore with an empty From is filled with all servers.
	Schedule []sim.Fault
}

// Deterministic catch-up cost model: a replacement (or restored cluster)
// comes back syncBase + syncPerVersion × (versions adopted) after the
// replace/restore instant. Virtual microseconds, part of the schedule —
// identical at any worker count — and coarse enough that a mid-run
// replacement is an outage an order of magnitude above the latency
// ceiling, matching the other nemesis durations.
const (
	syncBase       sim.Time = 2_000
	syncPerVersion sim.Time = 25
)

func (n *Nemesis) defaults() {
	if n.Start <= 0 {
		n.Start = 4_000
	}
	if n.Period <= 0 {
		n.Period = 30_000
	}
	if n.Duration <= 0 {
		n.Duration = 8_000
	}
}

// build validates the configuration against the deployment and returns
// the armed fault schedule: sorted by instant, At made absolute by adding
// the run-start time.
func (n *Nemesis) build(d *protocol.Deployment, seed int64, start sim.Time) ([]sim.Fault, error) {
	n.defaults()
	servers := d.Place.Servers()
	isServer := make(map[sim.ProcessID]bool, len(servers))
	for _, s := range servers {
		isServer[s] = true
	}
	var faults []sim.Fault
	if len(n.Schedule) > 0 {
		faults = append(faults, n.Schedule...)
		for i, f := range faults {
			switch f.Kind {
			case sim.FaultCrash, sim.FaultRestart:
				if !isServer[f.Proc] {
					return nil, fmt.Errorf("driver: nemesis %s targets %q: crash/restart targets must be servers", f.Kind, f.Proc)
				}
			case sim.FaultCut, sim.FaultHeal:
				if len(f.From) == 0 || len(f.To) == 0 {
					return nil, fmt.Errorf("driver: nemesis %s with an empty partition group", f.Kind)
				}
			case sim.FaultReplace:
				if !isServer[f.Proc] {
					return nil, fmt.Errorf("driver: nemesis %s targets %q: replace targets must be servers", f.Kind, f.Proc)
				}
			case sim.FaultRestore:
				if len(f.From) == 0 {
					// A bare restore means the whole cluster.
					faults[i].From = append([]sim.ProcessID(nil), servers...)
					break
				}
				for _, pid := range f.From {
					if !isServer[pid] {
						return nil, fmt.Errorf("driver: nemesis restore includes %q: restore targets must be servers", pid)
					}
				}
			default:
				return nil, fmt.Errorf("driver: unknown fault kind %d", f.Kind)
			}
			if f.At < 0 {
				return nil, fmt.Errorf("driver: nemesis fault at negative instant %d", f.At)
			}
		}
	} else {
		if n.Crashes < 0 || n.Partitions < 0 || n.Replaces < 0 || n.Restores < 0 {
			return nil, fmt.Errorf("driver: negative nemesis cycle count")
		}
		// The schedule RNG is its own stream — never the kernel's — so a
		// fault-free run with the same seed is untouched byte-for-byte.
		rng := sim.NewRNG(seed*1_000_033 + 97)
		for i := 0; i < n.Crashes; i++ {
			at := n.Start + sim.Time(i)*n.Period
			target := servers[rng.Intn(len(servers))]
			faults = append(faults,
				sim.Fault{At: at, Kind: sim.FaultCrash, Proc: target, Lose: n.Lose},
				sim.Fault{At: at + n.Duration, Kind: sim.FaultRestart, Proc: target})
		}
		// Replacement and restore cycles are offset inside the period so
		// combined schedules (crash+replace, …) interleave rather than
		// collide; their companion restarts are data-dependent (the sync
		// duration scales with the versions adopted) and get inserted into
		// the armed schedule at apply time, not here.
		for i := 0; i < n.Replaces; i++ {
			at := n.Start + n.Period/4 + sim.Time(i)*n.Period
			target := servers[rng.Intn(len(servers))]
			faults = append(faults,
				sim.Fault{At: at, Kind: sim.FaultReplace, Proc: target, Lose: n.Lose})
		}
		for i := 0; i < n.Restores; i++ {
			at := n.Start + (3*n.Period)/4 + sim.Time(i)*n.Period
			faults = append(faults,
				sim.Fault{At: at, Kind: sim.FaultRestore, Lose: n.Lose,
					From: append([]sim.ProcessID(nil), servers...)})
		}
		if n.Partitions > 0 {
			a, b := n.groups(d)
			if len(a) == 0 || len(b) == 0 {
				return nil, fmt.Errorf("driver: nemesis partition needs two non-empty halves (got %d|%d)", len(a), len(b))
			}
			for i := 0; i < n.Partitions; i++ {
				at := n.Start + n.Period/2 + sim.Time(i)*n.Period
				faults = append(faults,
					sim.Fault{At: at, Kind: sim.FaultCut, From: a, To: b},
					sim.Fault{At: at + n.Duration, Kind: sim.FaultHeal, From: a, To: b})
			}
		}
	}
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At < faults[j].At })
	for i := range faults {
		faults[i].At += start
	}
	return faults, nil
}

// groups returns the two partition halves: the sites split (site 0 vs the
// rest) when the deployment is multi-site, trailing-index parity
// otherwise. ServersOnly keeps clients out — only replication traffic is
// severed.
func (n *Nemesis) groups(d *protocol.Deployment) (a, b []sim.ProcessID) {
	var pool []sim.ProcessID
	pool = append(pool, d.Place.Servers()...)
	if !n.ServersOnly {
		pool = append(pool, d.Clients...)
	}
	if t := d.Topo; t != nil && t.Sites > 1 {
		for _, pid := range pool {
			if t.SiteOf(pid) == 0 {
				a = append(a, pid)
			} else {
				b = append(b, pid)
			}
		}
		return a, b
	}
	for i, pid := range pool {
		if i%2 == 0 {
			a = append(a, pid)
		} else {
			b = append(b, pid)
		}
	}
	return a, b
}

// NemesisReport is the fault-injection outcome of a run (Report.Nemesis,
// nil on fault-free runs so existing serializations stay byte-diffable).
type NemesisReport struct {
	// Scheduled counts the faults in the armed schedule; Applied the ones
	// that changed anything (re-crashing a downed server is a no-op).
	Scheduled int
	Applied   int
	// Per-kind applied counts.
	Crashes    int
	Restarts   int
	Partitions int
	Heals      int
	// LostMessages counts income-buffer messages discarded by lossy
	// crashes (0 under persistence: a partition or persistent crash never
	// loses anything — held traffic is delayed, not dropped).
	LostMessages int64
	// UnavailableTime is the total virtual time some fault was active
	// (overlapping fault windows merged), clipped to the measured run.
	UnavailableTime sim.Time
	// Recoveries counts heal/restart events after which a qualifying
	// commit was observed (for a restart: a commit touching the restarted
	// server; for a heal: any commit); RecoveryLatency summarizes the
	// virtual time from the heal instant to that first commit.
	// Unrecovered counts heal/restart events never followed by one — a
	// run that ended before recovering, or a protocol that cannot.
	Recoveries      int
	Unrecovered     int
	RecoveryLatency stats.Summary
	// FaultedCommitted / FaultedRejected / FaultedLatency cover the
	// transactions whose lifetime overlapped a fault window — the
	// degraded-phase slice of the run, reported separately so fault-free
	// latency is not polluted by outage stalls.
	FaultedCommitted int
	FaultedRejected  int
	FaultedLatency   stats.Summary
	// Reconfiguration accounting. Replacements/Restores count applied
	// replace/restore events; SyncedVersions the versions replacements
	// adopted in total (durable image + peer transfer), PeerSyncedVersions
	// the peer-transferred share; SyncTime the summed virtual catch-up
	// duration (replace/restore instant → companion restart).
	Replacements       int
	Restores           int
	SyncedVersions     int64
	PeerSyncedVersions int64
	SyncTime           sim.Time
	// SyncPhaseCommitted / SyncPhaseLatency are the replacement-phase
	// slice: commits whose lifetime overlapped a catch-up window — the
	// price user transactions pay for a reconfiguration in flight.
	SyncPhaseCommitted int
	SyncPhaseLatency   stats.Summary
}

// faultWindow is a closed maximal interval during which ≥1 fault was
// active.
type faultWindow struct{ from, to sim.Time }

// recoveryMark is an open recovery-latency measurement: set at a restart
// or heal instant, closed by the first qualifying commit.
type recoveryMark struct {
	at   sim.Time
	proc sim.ProcessID // restart target; "" for heals (any commit counts)
	done bool
}

// nemesisState threads the armed schedule through a run.
type nemesisState struct {
	faults []sim.Fault // armed: sorted, absolute instants
	idx    int
	rep    *NemesisReport

	active   int // open-fault depth; >0 means inside a fault window
	winStart sim.Time
	windows  []faultWindow
	marks    []recoveryMark
	recLat   *stats.Collector
	faulted  *stats.Collector
	// syncWins are the catch-up windows (replace/restore instant →
	// companion restart), known in full at apply time because the sync
	// duration is a deterministic function of the versions adopted.
	syncWins []faultWindow
	syncLat  *stats.Collector
}

func newNemesisState(faults []sim.Fault) *nemesisState {
	return &nemesisState{
		faults:  faults,
		rep:     &NemesisReport{Scheduled: len(faults)},
		recLat:  stats.NewCollector(),
		faulted: stats.NewCollector(),
		syncLat: stats.NewCollector(),
	}
}

// next returns the first unapplied fault, nil when the schedule is spent.
func (s *nemesisState) next() *sim.Fault {
	if s.idx < len(s.faults) {
		return &s.faults[s.idx]
	}
	return nil
}

// applyDue applies every fault scheduled at or before the kernel's
// current instant. The caller guarantees the engine is not running.
// Replace/restore events insert their companion restarts into the armed
// schedule here — the sync duration is a deterministic function of the
// versions the replacement adopted, so the inserted instants (and hence
// the whole schedule) stay identical at any worker count.
func (s *nemesisState) applyDue(k *sim.Kernel) {
	for s.idx < len(s.faults) && s.faults[s.idx].At <= k.Now() {
		f := s.faults[s.idx]
		s.idx++
		switch f.Kind {
		case sim.FaultReplace:
			// A replace of an already-down server continues its open crash
			// window rather than opening a second one (the companion restart
			// closes exactly one).
			wasUp := !k.Down(f.Proc)
			st, ok := k.Replace(f.Proc, f.Lose)
			if !ok {
				continue
			}
			s.rep.Applied++
			s.rep.Replacements++
			if wasUp {
				s.open(k.Now())
			}
			s.scheduleSyncRestart(k, st, []sim.ProcessID{f.Proc})
		case sim.FaultRestore:
			// One window slot per server this restore takes down (servers
			// already down keep their open crash windows); the coordinated
			// restart closes them all at the same instant.
			wasUp := 0
			for _, pid := range f.From {
				if !k.Down(pid) {
					wasUp++
				}
			}
			st, done := k.Restore(f.From, f.Lose)
			if done == 0 {
				continue
			}
			s.rep.Applied++
			s.rep.Restores++
			for i := 0; i < wasUp; i++ {
				s.open(k.Now())
			}
			up := make([]sim.ProcessID, 0, done)
			for _, pid := range f.From {
				if k.Down(pid) {
					up = append(up, pid)
				}
			}
			s.scheduleSyncRestart(k, st, up)
		default:
			if !k.ApplyFault(f) {
				continue
			}
			s.rep.Applied++
			switch f.Kind {
			case sim.FaultCrash:
				s.rep.Crashes++
				s.open(k.Now())
			case sim.FaultRestart:
				s.rep.Restarts++
				s.close(k.Now())
				s.marks = append(s.marks, recoveryMark{at: k.Now(), proc: f.Proc})
			case sim.FaultCut:
				s.rep.Partitions++
				s.open(k.Now())
			case sim.FaultHeal:
				s.rep.Heals++
				s.close(k.Now())
				s.marks = append(s.marks, recoveryMark{at: k.Now()})
			}
		}
	}
}

// scheduleSyncRestart accounts one replace/restore catch-up and inserts
// the companion restarts that bring the replacement(s) up once caught up:
// at now + syncBase + syncPerVersion × versions adopted. The inserted
// restarts become part of the armed schedule (Scheduled is bumped so the
// Applied == Scheduled invariant is preserved) and flow through the
// ordinary FaultRestart accounting — window close, recovery mark.
func (s *nemesisState) scheduleSyncRestart(k *sim.Kernel, st sim.SyncStats, procs []sim.ProcessID) {
	dur := syncBase + syncPerVersion*sim.Time(st.Total())
	s.rep.SyncedVersions += int64(st.Total())
	s.rep.PeerSyncedVersions += int64(st.Peer)
	s.rep.SyncTime += dur
	at := k.Now() + dur
	s.syncWins = append(s.syncWins, faultWindow{from: k.Now(), to: at})
	for _, pid := range procs {
		s.insert(sim.Fault{At: at, Kind: sim.FaultRestart, Proc: pid})
	}
}

// insert adds a fault to the armed schedule at its sorted position (at or
// after the current cursor — inserted faults are never in the past).
func (s *nemesisState) insert(f sim.Fault) {
	i := s.idx
	for i < len(s.faults) && s.faults[i].At <= f.At {
		i++
	}
	s.faults = append(s.faults, sim.Fault{})
	copy(s.faults[i+1:], s.faults[i:])
	s.faults[i] = f
	s.rep.Scheduled++
}

func (s *nemesisState) open(t sim.Time) {
	if s.active == 0 {
		s.winStart = t
	}
	s.active++
}

func (s *nemesisState) close(t sim.Time) {
	s.active--
	if s.active == 0 {
		s.windows = append(s.windows, faultWindow{from: s.winStart, to: t})
	}
}

// overlaps reports whether [inv, comp] (virtual µs) intersects any fault
// window, closed or still open.
func (s *nemesisState) overlaps(inv, comp int64) bool {
	for _, w := range s.windows {
		if inv <= int64(w.to) && comp >= int64(w.from) {
			return true
		}
	}
	return s.active > 0 && comp >= int64(s.winStart)
}

// overlapsSync reports whether [inv, comp] intersects a catch-up window
// (replace/restore instant → companion restart). Catch-up windows are
// closed at creation — the sync duration is known at apply time — so no
// open-window case exists here.
func (s *nemesisState) overlapsSync(inv, comp int64) bool {
	for _, w := range s.syncWins {
		if inv <= int64(w.to) && comp >= int64(w.from) {
			return true
		}
	}
	return false
}

// observe accounts one collected result: degraded-phase tallies for
// transactions whose lifetime crossed a fault window, and recovery-mark
// closure for the first qualifying commit after each restart/heal.
func (s *nemesisState) observe(res *model.Result, place *protocol.Placement) {
	if !res.OK() {
		if s.overlaps(res.Invoked, res.Completed) {
			s.rep.FaultedRejected++
		}
		return
	}
	if s.overlaps(res.Invoked, res.Completed) {
		s.rep.FaultedCommitted++
		s.faulted.Add(res.Completed - res.Invoked)
	}
	if s.overlapsSync(res.Invoked, res.Completed) {
		s.rep.SyncPhaseCommitted++
		s.syncLat.Add(res.Completed - res.Invoked)
	}
	for i := range s.marks {
		m := &s.marks[i]
		if m.done || res.Completed < int64(m.at) {
			continue
		}
		if m.proc != "" {
			touches := false
			for _, sid := range place.ServersFor(res.Txn.Objects()) {
				if sid == m.proc {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
		}
		m.done = true
		s.rep.Recoveries++
		s.recLat.Add(res.Completed - int64(m.at))
	}
}

// finish seals the report: the still-open window (an unhealed fault) is
// clipped to the run end, unavailability summed, unclosed recovery marks
// counted.
func (s *nemesisState) finish(k *sim.Kernel, runStart sim.Time) *NemesisReport {
	end := k.Now()
	if s.active > 0 {
		s.windows = append(s.windows, faultWindow{from: s.winStart, to: end})
		s.active = 0
	}
	for _, w := range s.windows {
		from, to := w.from, w.to
		if from < runStart {
			from = runStart
		}
		if to > end {
			to = end
		}
		if to > from {
			s.rep.UnavailableTime += to - from
		}
	}
	for _, m := range s.marks {
		if !m.done {
			s.rep.Unrecovered++
		}
	}
	s.rep.RecoveryLatency = s.recLat.Summarize()
	s.rep.FaultedLatency = s.faulted.Summarize()
	s.rep.SyncPhaseLatency = s.syncLat.Summarize()
	s.rep.LostMessages = k.LostInboxMessages()
	return s.rep
}

// engineRun is the fault-aware dispatch both load loops go through: it
// runs the sharded runner in segments bounded by the next scheduled fault
// instant (and the open-loop injection horizon, when set), applying due
// faults between segments — serially, while no shard is stepping, which
// is what keeps the faulted schedule a pure function of seed and
// partition at any worker count. With no nemesis
// configured it degenerates to a single run at the injection horizon.
func (r *run) engineRun(stop func(*sim.Kernel) bool, budget int) int {
	if r.nem == nil {
		r.runner.SetHorizon(r.injHorizon)
		return r.runner.Run(stop, budget)
	}
	k := r.d.Kernel
	total := 0
	for {
		r.nem.applyDue(k)
		h := r.injHorizon
		if f := r.nem.next(); f != nil && (h == 0 || f.At < h) {
			h = f.At
		}
		r.runner.SetHorizon(h)
		total += r.runner.Run(stop, budget-total)
		if total >= budget || (stop != nil && stop(k)) {
			return total
		}
		f := r.nem.next()
		if f == nil || (r.injHorizon != 0 && f.At >= r.injHorizon) {
			// Schedule spent (or the rest belongs to a later injection
			// segment): leave the runner at the caller's horizon.
			r.runner.SetHorizon(r.injHorizon)
			return total
		}
		// The runner exhausted everything before the fault instant — jump
		// the clock there (the virtual-time leap over a dead system) and
		// apply it. Each pass through here consumes ≥1 fault, so the loop
		// terminates.
		if f.At > k.Now() {
			k.AdvanceTo(f.At)
		}
		r.nem.applyDue(k)
	}
}
