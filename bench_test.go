package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/copssnow"
	"repro/internal/protocols/naivefast"
	"repro/internal/protocols/twopcfast"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// --- E1: Table 1 (system characterization) ---

// BenchmarkTable1Characterization regenerates a measured Table 1 row
// (profile + theorem verdict) per protocol.
func BenchmarkTable1Characterization(b *testing.B) {
	for _, name := range []string{"copssnow", "wren", "spanner", "fatcops", "naivefast"} {
		p := core.ByName(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Characterize(p, []int64{1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E2: Figure 1 (Q_in → Q_0 → C_0) ---

func BenchmarkFigure1Setup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := adversary.SetupC0(copssnow.New(),
			protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: Figure 2 (Constructions 1 and 2) ---

func BenchmarkFigure2Constructions(b *testing.B) {
	d, err := adversary.SetupC0(naivefast.New(),
		protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	orders := d.ProbeOrders([]string{"X0", "X1"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := d.Probe("r0", []string{"X0", "X1"}, orders[i%len(orders)], true)
		if res == nil || !res.OK() {
			b.Fatal("probe failed")
		}
	}
}

// --- E4: Figure 3 + Theorem 1 (the induction and the contradiction) ---

func BenchmarkTheorem1Induction(b *testing.B) {
	for _, victim := range []protocol.Protocol{naivefast.New(), twopcfast.New()} {
		b.Run(victim.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := adversary.NewAttack(victim).Run()
				if err != nil {
					b.Fatal(err)
				}
				if v.Witness == nil {
					b.Fatal("no witness")
				}
			}
		})
	}
}

// --- E5: Theorem 2 (partial replication) ---

func BenchmarkTheorem2Partial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := adversary.NewAttack(naivefast.New())
		a.Cfg = protocol.Config{
			Servers: 3, ObjectsPerServer: 1, Replication: 2,
			Clients: 2, Readers: 8, Seed: 101,
		}
		v, err := a.Run()
		if err != nil {
			b.Fatal(err)
		}
		if v.Witness == nil {
			b.Fatal("no witness")
		}
	}
}

// --- E6: §3.4 limit corners ---

func BenchmarkLimitsCorners(b *testing.B) {
	corners := []string{"copssnow", "wren", "fatcops", "spanner"}
	for i := 0; i < b.N; i++ {
		name := corners[i%len(corners)]
		prof, err := spec.BuildProfile(core.ByName(name),
			protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 7}, []int64{1})
		if err != nil {
			b.Fatal(err)
		}
		if prof.FastROT() && prof.MultiWrite {
			b.Fatalf("%s achieves all four — impossible", name)
		}
	}
}

// --- E7: latency and staleness ---

func BenchmarkROTLatency(b *testing.B) {
	for _, name := range []string{"copssnow", "wren", "contrarian", "spanner", "fatcops", "eiger"} {
		b.Run(name, func(b *testing.B) {
			var p50 int64
			for i := 0; i < b.N; i++ {
				rep, err := core.MeasureLatency(core.ByName(name), workload.ReadHeavy(), 30, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				p50 = rep.ROT.P50
			}
			b.ReportMetric(float64(p50), "virtual-µs-p50")
		})
	}
}

func BenchmarkVisibilityStaleness(b *testing.B) {
	for _, name := range []string{"copssnow", "wren", "cure"} {
		b.Run(name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				rep, err := core.MeasureLatency(core.ByName(name), workload.Balanced(), 30, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				mean = rep.Staleness.Mean
			}
			b.ReportMetric(mean, "virtual-µs-mean")
		})
	}
}

// --- E8: closed-loop concurrent throughput (the load harness) ---

func BenchmarkClosedLoopThroughput(b *testing.B) {
	for _, name := range []string{"cops", "cure", "spanner"} {
		b.Run(name, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				rep, err := core.MeasureThroughput(core.ByName(name), workload.ReadHeavy(), 16, 500, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Incomplete != 0 {
					b.Fatalf("%d transactions incomplete", rep.Incomplete)
				}
				thr = rep.Throughput
			}
			b.ReportMetric(thr, "virtual-txn/s")
		})
	}
}

// BenchmarkOpenLoopCurve measures one open-loop latency–throughput curve
// (E9): saturation estimate plus a light/heavy rate pair. The reported
// metric is kernel events per committed transaction at 10% load — the
// quantity the time-leap scheduler keeps small (a spin regression shows
// up as a ~100× jump).
func BenchmarkOpenLoopCurve(b *testing.B) {
	for _, name := range []string{"cops", "spanner"} {
		b.Run(name, func(b *testing.B) {
			var evPerTxn float64
			for i := 0; i < b.N; i++ {
				curve, err := core.MeasureLoadCurve(core.ByName(name), workload.ReadHeavy(), int64(i)+1,
					core.CurveOptions{Clients: 8, Txns: 300, Fractions: []float64{0.1, 0.9}})
				if err != nil {
					b.Fatal(err)
				}
				light := curve.Points[0]
				if light.Incomplete != 0 {
					b.Fatalf("%d transactions incomplete", light.Incomplete)
				}
				evPerTxn = float64(light.Events) / float64(light.Committed)
			}
			b.ReportMetric(evPerTxn, "events/txn@10%")
		})
	}
}

// BenchmarkDriverEventRate measures raw kernel event throughput under
// concurrent load (events are the unit of simulated work, so wall-clock
// per event is the substrate cost to optimize).
func BenchmarkDriverEventRate(b *testing.B) {
	rep, err := core.MeasureThroughput(core.ByName("cops"), workload.ReadHeavy(), 16, 500, 1)
	if err != nil {
		b.Fatal(err)
	}
	evPerRun := rep.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MeasureThroughput(core.ByName("cops"), workload.ReadHeavy(), 16, 500, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(evPerRun), "events/run")
}

// BenchmarkSteppingEngines times the stepping engine on the 8-server
// 64-client cell (E12/E13): conservative lookahead executed serially
// (workers=1, the oracle schedule) and on a 4-goroutine pool
// (workers=4), and with the deterministic shard rebalance. Reported
// metric: events ÷ critical-path events — the measured
// shard-parallelism, i.e. the multi-core speedup ceiling of the cell.
func BenchmarkSteppingEngines(b *testing.B) {
	cases := []struct {
		name string
		cfg  driver.Config
	}{
		{"lookahead/workers=1", driver.Config{Servers: 8, Workers: 1}},
		{"lookahead/workers=4", driver.Config{Servers: 8, Workers: 4}},
		{"lookahead+rebalance/workers=1", driver.Config{Servers: 8, Workers: 1, Rebalance: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var par float64
			for i := 0; i < b.N; i++ {
				cfg := c.cfg
				cfg.Clients, cfg.Txns, cfg.Mix, cfg.Seed = 64, 2000, workload.ReadHeavy(), 42
				rep, err := core.MeasureThroughputWith(core.ByName("cops"), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Incomplete != 0 {
					b.Fatalf("%d transactions incomplete", rep.Incomplete)
				}
				par = float64(rep.Sharding.Events) / float64(rep.Sharding.CriticalEvents)
			}
			b.ReportMetric(par, "shard-parallelism")
		})
	}
}

// BenchmarkOpenLoopInjection times one point of the benchmark's cops curve
// (4 servers, 32 clients, Poisson arrivals at about half the saturated
// rate): the engine is re-entered once per injection, so what a Run costs
// beyond its events shows here and not in the closed-loop cells. Deploy
// and init are outside the timer and the malloc count.
func BenchmarkOpenLoopInjection(b *testing.B) {
	cfg := driver.Config{Servers: 4, Clients: 32, Txns: 5000, Mix: workload.ReadHeavy(), Seed: 42, Rate: 7200}
	var mallocs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := protocol.Deploy(core.ByName("cops"), protocol.Config{Servers: cfg.Servers, ObjectsPerServer: 2, Clients: cfg.Clients, Seed: cfg.Seed})
		d.Kernel.SetTraceCap(-1)
		d.Kernel.SetPayloadRetention(false)
		if err := d.InitAll(400_000); err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		rep, err := driver.RunOn(d, cfg)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Incomplete != 0 || rep.Issued != cfg.Txns {
			b.Fatalf("issued %d of %d, %d incomplete", rep.Issued, cfg.Txns, rep.Incomplete)
		}
		mallocs += after.Mallocs - before.Mallocs
	}
	n := float64(b.N * cfg.Txns)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/injection")
	b.ReportMetric(float64(mallocs)/n, "allocs/injection")
}

// --- substrate benchmarks (regression tracking) ---

func BenchmarkCausalChecker(b *testing.B) {
	h := history.New(map[string]model.Value{"X0": "i0", "X1": "i1"})
	h.Add(&history.TxnRecord{ID: model.TxnID{Client: "a", Seq: 1}, Client: "a",
		Writes: []model.Write{{Object: "X0", Value: "a0"}, {Object: "X1", Value: "a1"}}})
	h.Add(&history.TxnRecord{ID: model.TxnID{Client: "b", Seq: 1}, Client: "b",
		Reads: map[string]model.Value{"X0": "a0", "X1": "a1"}})
	h.Add(&history.TxnRecord{ID: model.TxnID{Client: "b", Seq: 2}, Client: "b",
		Writes: []model.Write{{Object: "X0", Value: "b0"}}})
	h.Add(&history.TxnRecord{ID: model.TxnID{Client: "c", Seq: 1}, Client: "c",
		Reads: map[string]model.Value{"X0": "b0", "X1": "a1"}})
	h.Add(&history.TxnRecord{ID: model.TxnID{Client: "c", Seq: 2}, Client: "c",
		Reads: map[string]model.Value{"X0": "b0"}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := history.CheckCausal(h); !v.OK {
			b.Fatal(v.Reason)
		}
	}
}

// BenchmarkCheck charts certification cost across history sizes for both
// directions — accepting (a witness exists and is found) and refuting
// (NO serialization exists, the old checkers' exponential worst case) —
// so checker scaling regressions surface in the benchmark grid. n = 96
// and 192 are beyond the old enumeration's 62-transaction ceiling.
func BenchmarkCheck(b *testing.B) {
	for _, n := range []int{24, 48, 96, 192} {
		accept := history.GenSerializable(41, n, 8)
		refute := history.GenViolating(43, n)
		b.Run(fmt.Sprintf("accept/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v := history.Check(accept, "causal"); !v.OK {
					b.Fatal(v.Reason)
				}
			}
		})
		b.Run(fmt.Sprintf("refute/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v := history.Check(refute, "causal"); v.OK {
					b.Fatal("violating history certified clean")
				}
			}
		})
		// The Lemma-1 refutation above dies in clause construction; the
		// divergent-orders history refutes only through the solver's
		// branching search (both writer orders of every group explored
		// and killed), pinning the search/memoization cost.
		branch := history.GenCausalOnly(47, n)
		b.Run(fmt.Sprintf("refute-branching/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v := history.Check(branch, "serializable"); v.OK {
					b.Fatal("divergent-orders history serialized")
				}
			}
		})
	}
}

func BenchmarkSimKernelThroughput(b *testing.B) {
	d := protocol.Deploy(naivefast.New(), protocol.Config{Servers: 4, ObjectsPerServer: 2, Clients: 4, Seed: 3})
	if err := d.InitAll(400_000); err != nil {
		b.Fatal(err)
	}
	objs := d.Place.Objects()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		cl := d.Clients[i%len(d.Clients)]
		txn := model.NewWriteOnly(model.TxnID{},
			model.Write{Object: objs[i%len(objs)], Value: model.Value(fmt.Sprintf("bench-%d", i))})
		before := d.Kernel.Trace().Len()
		if res := d.RunTxn(cl, txn, 400_000); !res.OK() {
			b.Fatal("write failed")
		}
		events += d.Kernel.Trace().Len() - before
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/txn")
}

func BenchmarkSnapshot(b *testing.B) {
	d := protocol.Deploy(copssnow.New(), protocol.Config{Servers: 2, ObjectsPerServer: 2, Clients: 4, Seed: 5})
	if err := d.InitAll(400_000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k := d.Kernel.Snapshot(); k == nil {
			b.Fatal("nil snapshot")
		}
	}
}

func BenchmarkVisibilityProbe(b *testing.B) {
	d := protocol.Deploy(copssnow.New(), protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 5})
	if err := d.InitAll(400_000); err != nil {
		b.Fatal(err)
	}
	want := map[string]model.Value{
		"X0": protocol.InitialValue("X0"),
		"X1": protocol.InitialValue("X1"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vis := d.VisibleAll("r0", want, true); !vis.Visible {
			b.Fatal("initials not visible")
		}
	}
}

func BenchmarkRandomScheduleWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := protocol.Deploy(copssnow.New(), protocol.Config{Servers: 2, ObjectsPerServer: 2, Clients: 2, Seed: int64(i)})
		if err := d.InitAll(400_000); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewGenerator(workload.ReadHeavy(), d.Place.Objects(), int64(i))
		sched := sim.NewRandom(int64(i) * 3)
		for t := 0; t < 10; t++ {
			txn := gen.Next("c0")
			if !txn.IsReadOnly() {
				txn = gen.NextSingleWrite("c0")
			}
			if res := d.RunTxnWith("c0", txn, sched, 400_000); !res.OK() {
				b.Fatal("txn failed")
			}
		}
	}
}
