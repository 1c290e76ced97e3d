//go:build benchtrace

// Command layers is the benchmark's tracer: it runs one workload's cells
// in-process, records a span around every call it makes into a layer
// (repro/internal/...), holds the spans in memory, and derives the
// per-layer metrics from them. It is the only file of the benchmark that
// imports repro/internal, and it sits behind the benchtrace build tag so
// `go build ./...` never depends on it: when a refactor of driver.Config
// or core.*Options breaks it, the runner reports "layers: unavailable"
// and the end-to-end numbers stand.
//
//	go build -tags benchtrace -o layers ./cmd/perf/layers
//	./layers -workload cert-ride -seed 42 -workers 2 -spans spans.json
//
// Every traced run also measures the workload-independent ledger (echo
// kernel, store chains, generator, batch checker, paper artefacts).
// Metrics another workload owns are simply absent from the result line;
// the runner prints them as 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/cmd/perf/ledger"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// tracer accumulates the spans, metrics and gate tallies of one run.
type tracer struct {
	rec   *ledger.Recorder
	seed  int64
	bench string

	units     map[string]string
	metrics   map[string]ledger.Value
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func (t *tracer) set(name string, v float64) {
	unit, ok := t.units[name]
	if !ok {
		t.problems = append(t.problems, "tracer bug: "+name+" is not a declared per-layer metric")
	}
	t.metrics[name] = ledger.Value{Value: v, Unit: unit}
	fmt.Printf("%-44s %14.4f %s\n", name, v, unit)
}

// spanned is what a span measured: wall-clock of the call and the heap
// allocations made during it.
type spanned struct {
	wall    time.Duration
	mallocs int64
}

func (s spanned) Seconds() float64 { return s.wall.Seconds() }

// span times one call into a layer. counts runs after the call and
// returns the tallies taken at this boundary; mallocs is always added.
func (t *tracer) span(name, layer, cell string, call func(), counts func() map[string]int64) spanned {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.rec.Begin(name, layer, cell)
	start := time.Now()
	call()
	s := spanned{wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	s.mallocs = int64(after.Mallocs - before.Mallocs)
	c := map[string]int64{}
	if counts != nil {
		c = counts()
	}
	c["mallocs"] = s.mallocs
	t.rec.End(id, c)
	return s
}

func main() {
	name := flag.String("workload", "", "workload to trace")
	seed := flag.Int64("seed", 42, "workload seed")
	workers := flag.Int("workers", 1, "W: the worker count of the pooled cells")
	bench := flag.String("bench", "", "cmd/bench binary, for the process-overhead probe (omit to skip it)")
	spans := flag.String("spans", "", "write all spans and their counts to this file at exit")
	flag.Parse()

	wl, err := ledger.WorkloadByName(*name, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(2)
	}
	t := &tracer{rec: ledger.NewRecorder(wl.Name), seed: *seed, bench: *bench,
		units: map[string]string{}, metrics: map[string]ledger.Value{}}
	for _, m := range ledger.PerLayer() {
		t.units[m.Name] = m.Unit
	}

	t.microLedger()
	switch wl.Name {
	case "load-reads":
		t.loadCells(wl, "reads")
	case "load-writes":
		t.loadCells(wl, "writes")
	case "cert-ride":
		t.certCells(wl)
	case "open-geo-faults":
		t.geoCells(wl)
	}

	if *spans != "" {
		if err := t.writeSpans(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "layers:", err)
			os.Exit(2)
		}
	}
	out := ledger.TraceResult{Problems: t.problems, Notes: t.notes, Result: ledger.Result{
		Correct: len(t.problems) == 0 && t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: t.metrics}}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// writeSpans dumps every span with its counts, plus self time by layer:
// a span's duration minus the interval its children cover.
func (t *tracer) writeSpans(path string) error {
	all := t.rec.Spans()
	self := map[string]int64{}
	for i, s := range all {
		self[s.Layer] += ledger.SelfTime(all, i)
	}
	data, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		SelfNS   map[string]int64 `json:"self_ns_by_layer"`
		Spans    []ledger.Span    `json:"spans"`
	}{t.rec.Workload, t.seed, self, all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ---- cells -----------------------------------------------------------------

func mixOf(name string) workload.Mix {
	if name == "balanced" {
		return workload.Balanced()
	}
	return workload.ReadHeavy()
}

// nemesisOf mirrors cmd/bench's -nemesis table for the one schedule the
// plan uses; the table lives in package main there, so it cannot be
// imported.
func nemesisOf(name string) *driver.Nemesis {
	if name == "crash+partition" {
		return &driver.Nemesis{Crashes: 1, Partitions: 1, Start: 20_000, Period: 120_000, Duration: 10_000}
	}
	return nil
}

// config maps a plan command onto the driver the way cmd/bench's flags
// do through core.MeasureThroughputWith.
func (t *tracer) config(c ledger.Command) driver.Config {
	topo, err := protocol.TopologyByName(c.Topology)
	if err != nil {
		t.problems = append(t.problems, err.Error())
	}
	return driver.Config{
		Clients: c.Clients, Txns: c.Txns, Mix: mixOf(c.Mix), Seed: t.seed,
		Servers: c.Servers, ObjectsPerServer: c.Objects, Topology: topo,
		ProbeStaleness: c.Stale, Workers: c.Workers, Nemesis: nemesisOf(c.Nemesis),
	}
}

// cellRun is one driver.Run under a span.
type cellRun struct {
	spanned
	rep *driver.Report
}

// runCell spans driver.Run for one protocol of a command and applies the
// row gate to its report.
func (t *tracer) runCell(c ledger.Command, proto string, cfg driver.Config) cellRun {
	cell := c.CellName(proto)
	var run cellRun
	var err error
	run.spanned = t.span("driver.Run", "driver", cell, func() {
		run.rep, err = driver.Run(core.ByName(proto), cfg)
	}, func() map[string]int64 {
		if run.rep == nil {
			return map[string]int64{}
		}
		return map[string]int64{"events": int64(run.rep.Events), "txns": int64(run.rep.Committed)}
	})
	t.attempted += cfg.Txns
	switch {
	case err != nil:
		t.failed += cfg.Txns
		t.problems = append(t.problems, cell+": "+err.Error())
		run.rep = &driver.Report{}
	case run.rep.Incomplete != 0 || run.rep.Rejected != 0 || run.rep.Committed != cfg.Txns:
		t.failed += cfg.Txns - run.rep.Committed
		t.problems = append(t.problems, fmt.Sprintf("%s: committed %d of %d (rejected %d, incomplete %d)",
			cell, run.rep.Committed, cfg.Txns, run.rep.Rejected, run.rep.Incomplete))
	}
	return run
}

// loadCells traces the uncertified closed-loop cells of load-reads and
// load-writes: one driver.Run per protocol, host cost per simulated
// event beside the exact simulated figures.
func (t *tracer) loadCells(wl ledger.Workload, mix string) {
	for _, c := range wl.TracedCommands() {
		for _, p := range c.Protocols {
			run := t.runCell(c, p, t.config(c))
			ev := float64(max(run.rep.Events, 1))
			pre := "protocols." + p + "." + mix + "."
			t.set("driver.run_wall_s."+c.CellName(p), run.wall.Seconds())
			t.set(pre+"ns_per_event", float64(run.wall.Nanoseconds())/ev)
			t.set(pre+"allocs_per_event", float64(run.mallocs)/ev)
			t.set(pre+"events_per_txn", ev/float64(max(run.rep.Committed, 1)))
			t.set(pre+"virt_txns_per_s", run.rep.Throughput)
			t.set(pre+"virt_p99_us", float64(run.rep.Latency.P99))
			if mix == "reads" && p == "cops" {
				if s := run.rep.Sharding; s != nil {
					t.set("sim.modeled_parallelism.uniform", float64(s.Events)/float64(max(s.CriticalEvents, 1)))
					t.set("sim.rounds.uniform", float64(s.Rounds))
				}
				// The same cell on one worker, alternated with the pool:
				// what W workers buy in wall-clock.
				one := c
				one.Workers, one.Tag = 1, "reads-w1"
				pool := c
				pool.Tag = "reads-wW"
				serial := []float64{t.runCell(one, p, t.config(one)).Seconds()}
				pooled := []float64{run.Seconds(), t.runCell(pool, p, t.config(pool)).Seconds()}
				serial = append(serial, t.runCell(one, p, t.config(one)).Seconds())
				t.set("sim.speedup_w2", ledger.Median(serial)/ledger.Median(pooled))
			}
		}
	}
}

// clientNames are the workload clients a deployment of n declares
// (protocol.Deploy names them c0, c1, ...): a streaming session wants them
// all up front.
func clientNames(n int) []string {
	names := make([]string, n)
	for k := range names {
		names[k] = fmt.Sprintf("c%d", k)
	}
	return names
}

// certCells traces cert-ride at the full sizes of the tier-1 hot spot.
// The run records its history uncertified; the history is then replayed
// into a streaming session exactly as the ride-along feeds it (records in
// collection order, every client declared), one span per Append, and
// re-solved once by the batch checker.
func (t *tracer) certCells(wl ledger.Workload) {
	for i, c := range wl.TracedCommands() {
		p := c.Protocols[0]
		cfg := t.config(c)
		cfg.RecordHistory = true
		run := t.runCell(c, p, cfg)
		if run.rep.History == nil {
			continue
		}
		h := run.rep.History
		level := core.ByName(p).Claims().Consistency
		clients := clientNames(c.Clients)

		var verdict history.SessionVerdict
		appendUS := make([]float64, 0, h.Len())
		sessionWall := t.span("history.Session", "history", c.Cell, func() {
			s := history.NewStreamingSession(h.Initials(), level, clients)
			for _, rec := range h.Records() {
				start := time.Now()
				id := t.rec.Begin("Session.Append", "history", c.Cell)
				clean := s.Append(rec)
				t.rec.End(id, nil)
				appendUS = append(appendUS, float64(time.Since(start).Nanoseconds())/1e3)
				if !clean {
					break
				}
			}
			id := t.rec.Begin("Session.Finish", "history", c.Cell)
			verdict = s.Finish()
			t.rec.End(id, nil)
		}, func() map[string]int64 {
			return map[string]int64{"appends": int64(verdict.Appended), "resolves": int64(verdict.Resolves),
				"peak_window": int64(verdict.PeakWindow)}
		})

		var batch history.Verdict
		batchWall := t.span("history.CheckBatch", "history", c.Cell, func() {
			batch = history.CheckBatch(h, level)
		}, nil)

		wantOK := p != "naivefast"
		if verdict.OK != wantOK || batch.OK != wantOK {
			t.failed += c.Txns
			t.problems = append(t.problems, fmt.Sprintf("%s: session ok=%v batch ok=%v, want %v (%s)",
				c.Cell, verdict.OK, batch.OK, wantOK, verdict.Reason))
		}

		pre := "history." + ledger.CertCells[i] + "."
		t.set("driver.run_wall_s."+c.Cell, run.Seconds()+sessionWall.Seconds())
		t.set(pre+"session_wall_s", sessionWall.Seconds())
		t.set(pre+"batch_wall_s", batchWall.Seconds())
		t.set(pre+"session_over_batch", sessionWall.Seconds()/batchWall.Seconds())
		t.set(pre+"append_us_p50", ledger.Median(appendUS))
		if p99, ok := ledger.Percentile(appendUS, 99); ok {
			t.set(pre+"append_us_p99", p99)
		} else {
			t.notes = append(t.notes, fmt.Sprintf("%sappend_us_p99 not reported: %d appends leave fewer than 10 samples beyond the 99th percentile",
				pre, len(appendUS)))
		}
		t.set(pre+"resolves", float64(verdict.Resolves))
		t.set(pre+"peak_window", float64(verdict.PeakWindow))
		if p == "naivefast" {
			t.set("history.naivefast.first_violation_txn", float64(verdict.FirstViolation))
		}
	}
}

// geoCells traces open-geo-faults: the open-loop curves, the 2-site
// cells, and the faulted cells with and without staleness probes.
func (t *tracer) geoCells(wl ledger.Workload) {
	for _, c := range wl.TracedCommands() {
		for _, p := range c.Protocols {
			cell := c.CellName(p)
			switch {
			case c.Curve:
				var fracs []float64
				for _, f := range strings.Split(c.Fractions, ",") {
					var v float64
					fmt.Sscan(f, &v)
					fracs = append(fracs, v)
				}
				var curve core.LoadCurve
				var err error
				wall := t.span("core.MeasureLoadCurve", "core", cell, func() {
					curve, err = core.MeasureLoadCurve(core.ByName(p), mixOf(c.Mix), t.seed, core.CurveOptions{
						Servers: c.Servers, Clients: c.Clients, Txns: c.Txns, Fractions: fracs, Workers: c.Workers})
				}, func() map[string]int64 {
					n := int64(0)
					for _, pt := range curve.Points {
						n += int64(pt.Events)
					}
					return map[string]int64{"events": n, "points": int64(len(curve.Points))}
				})
				t.attempted += c.Txns * len(fracs)
				if err != nil {
					t.failed += c.Txns * len(fracs)
					t.problems = append(t.problems, cell+": "+err.Error())
				}
				for _, pt := range curve.Points {
					if pt.Incomplete != 0 || pt.Rejected != 0 || pt.Committed != c.Txns {
						t.failed += c.Txns - pt.Committed
						t.problems = append(t.problems, fmt.Sprintf("%s at %.2f: committed %d of %d", cell, pt.Fraction, pt.Committed, c.Txns))
					}
				}
				t.set("core.curve_wall_s."+p, wall.Seconds())
			case c.Topology != "":
				run := t.runCell(c, p, t.config(c))
				t.set("driver.run_wall_s."+cell, run.wall.Seconds())
				if s := run.rep.Sharding; p == "cops" && s != nil {
					t.set("sim.modeled_parallelism.2site", float64(s.Events)/float64(max(s.CriticalEvents, 1)))
					t.set("sim.rounds.2site", float64(s.Rounds))
					t.set("sim.blocked_shard_rounds.2site", float64(s.BlockedShardRounds))
				}
			default:
				run := t.runCell(c, p, t.config(c))
				t.set("driver.run_wall_s."+cell, run.wall.Seconds())
				if p != "cops" {
					continue
				}
				if n := run.rep.Nemesis; n != nil {
					t.set("driver.nem_recovery_p50_us.cops", float64(n.RecoveryLatency.P50))
					t.set("driver.nem_unavailable_us.cops", float64(n.UnavailableTime))
				}
				// The same faulted cell without probes: what each
				// snapshot-cloning probe costs.
				bare := c
				bare.Stale = false
				bare.Tag = "nem-noprobe"
				plain := t.runCell(bare, p, t.config(bare))
				if s := run.rep.Staleness; s != nil && s.Probes > 0 {
					t.set("driver.stale_probe_ms", (run.wall-plain.wall).Seconds()*1e3/float64(s.Probes))
				}
			}
		}
	}
}

// ---- workload-independent ledger -------------------------------------------

// best runs f n times and returns the median duration: the micro-ledger
// entries are short, so one sample would mostly measure the scheduler.
func best(n int, f func() spanned) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(f().wall)
	}
	return time.Duration(ledger.Median(ds))
}

func (t *tracer) microLedger() {
	t.simLedger()
	t.storeLedger()

	// protocol: deploy and initialise the load-writes cell.
	deploy := best(3, func() spanned {
		return t.span("protocol.Deploy+InitAll", "protocol", "ledger", func() {
			d := protocol.Deploy(core.ByName("cops"), protocol.Config{Servers: 8, ObjectsPerServer: 64, Clients: 64, Seed: t.seed})
			if err := d.InitAll(400_000); err != nil {
				t.problems = append(t.problems, "deploy: "+err.Error())
			}
		}, nil)
	})
	t.set("protocol.deploy_init_ms", deploy.Seconds()*1e3)

	// workload: the Zipf 0.99 generator over the default 16-object keyspace.
	objects := make([]string, 16)
	for i := range objects {
		objects[i] = fmt.Sprintf("X%d", i)
	}
	const draws = 200_000
	next := best(3, func() spanned {
		g := workload.NewGenerator(workload.ReadHeavy(), objects, t.seed)
		return t.span("Generator.Next", "workload", "ledger", func() {
			for i := 0; i < draws; i++ {
				g.Next("c0")
			}
		}, func() map[string]int64 { return map[string]int64{"draws": draws} })
	})
	t.set("workload.next_ns", float64(next.Nanoseconds())/draws)

	// history: the batch solver refuting a causal-only history at
	// "serializable" through real branching.
	const checks = 200
	refute := best(3, func() spanned {
		h := history.GenCausalOnly(47, 192)
		return t.span("history.Check", "history", "ledger", func() {
			for i := 0; i < checks; i++ {
				if v := history.Check(h, "serializable"); v.OK {
					t.problems = append(t.problems, "history.Check accepted a causal-only history as serializable")
					return
				}
			}
		}, func() map[string]int64 { return map[string]int64{"checks": checks} })
	})
	t.set("history.check_refute_ms_n192", refute.Seconds()*1e3/checks)

	// Paper artefacts: must stay milliseconds.
	t.set("core.table1_ms", t.span("core.Table1", "core", "ledger", func() {
		if _, err := core.Table1([]int64{17, 34, 51}); err != nil {
			t.problems = append(t.problems, "table1: "+err.Error())
		}
	}, nil).Seconds()*1e3)
	t.set("adversary.attack_all_ms", t.span("adversary.Attack.Run", "adversary", "ledger", func() {
		for _, p := range core.All() {
			if _, err := adversary.NewAttack(p).Run(); err != nil {
				t.problems = append(t.problems, "attack "+p.Name()+": "+err.Error())
			}
		}
	}, nil).Seconds()*1e3)

	t.processOverhead()
	t.traceOverhead()
}

// processOverhead is what running a cell as a cmd/bench child costs over
// running it in-process: exec, runtime start, flag parsing, JSON.
func (t *tracer) processOverhead() {
	if t.bench == "" {
		return
	}
	warm := ledger.Warmup(1)
	var child, inproc []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := exec.Command(t.bench, warm.Args(t.seed)...).Run(); err != nil {
			t.problems = append(t.problems, "process-overhead probe: "+err.Error())
			return
		}
		child = append(child, time.Since(start).Seconds())
		inproc = append(inproc, t.runCell(warm, "cops", t.config(warm)).wall.Seconds())
	}
	// Noise only ever adds time, so the fastest of each side is compared.
	t.set("cmd-bench.process_overhead_ms", (slices.Min(child)-slices.Min(inproc))*1e3)
}

// traceOverhead replays one small certified history with the finest
// spans the tracer records (one per Append) switched on and off; the
// difference between the two is the tracing overhead.
func (t *tracer) traceOverhead() {
	probe := ledger.Command{Cell: "trace-probe", Protocols: []string{"cops"}, Mix: "readheavy",
		Servers: 4, Clients: 16, Txns: 500, Workers: 1}
	cfg := t.config(probe)
	cfg.RecordHistory = true
	run := t.runCell(probe, "cops", cfg)
	if run.rep.History == nil {
		return
	}
	clients := clientNames(probe.Clients)
	replay := func(traced bool) time.Duration {
		t.rec.Disabled = !traced
		defer func() { t.rec.Disabled = false }()
		start := time.Now()
		s := history.NewStreamingSession(run.rep.History.Initials(), "causal", clients)
		for _, rec := range run.rep.History.Records() {
			id := t.rec.Begin("Session.Append", "trace", probe.Cell)
			s.Append(rec)
			t.rec.End(id, nil)
		}
		s.Finish()
		return time.Since(start)
	}
	var on, off []float64
	for i := 0; i < 5; i++ {
		off = append(off, replay(false).Seconds())
		on = append(on, replay(true).Seconds())
	}
	t.set("trace.overhead_frac", ledger.Median(on)/ledger.Median(off)-1)
}
