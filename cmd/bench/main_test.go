package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func encode(t *testing.T, v any) string {
	t.Helper()
	js, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

func requireIdentical(t *testing.T, what, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			t.Fatalf("%s diverged at line %d:\n  run 1: %s\n  run 2: %s", what, i+1, la[i], lb[i])
		}
	}
	t.Fatalf("%s diverged in length: %d vs %d lines", what, len(la), len(lb))
}

// TestGridJSONByteIdentical: the closed-loop grid is the bench's contract
// — the same config must emit byte-identical JSON across runs so output
// can be diffed across commits.
func TestGridJSONByteIdentical(t *testing.T) {
	cfg := gridConfig{
		protocols: []string{"cops", "spanner"},
		mixes:     []string{"readheavy", "balanced"},
		clients:   []int{2, 8},
		txns:      []int{120}, pipeline: 1,
		servers: []int{2}, replication: []int{1},
		objects: 2, seed: 42, workers: 1,
	}
	run := func() string {
		rows, err := buildGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return encode(t, rows)
	}
	requireIdentical(t, "grid JSON", run(), run())
}

// TestGridWorkersByteIdentical is the bench-level serial-equals-parallel
// contract: the same grid built with Workers=1 (serial sharded stepping,
// the oracle) and Workers=4 must emit byte-identical JSON — worker count
// parallelizes the stepping, it never touches the schedule.
func TestGridWorkersByteIdentical(t *testing.T) {
	base := gridConfig{
		protocols: []string{"cops", "cure"},
		mixes:     []string{"readheavy"},
		clients:   []int{8},
		txns:      []int{120}, pipeline: 1,
		servers: []int{2, 4}, replication: []int{1},
		objects: 2, seed: 42,
	}
	run := func(workers int) string {
		cfg := base
		cfg.workers = workers
		rows, err := buildGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Shards == 0 || r.Rounds == 0 || r.CriticalPathEvent == 0 {
				t.Fatalf("sharded columns missing: %+v", r)
			}
			if r.Engine != "lookahead" {
				t.Fatalf("engine column %q, want lookahead", r.Engine)
			}
			if r.CriticalPathEvent > r.Events {
				t.Fatalf("critical path %d exceeds events %d", r.CriticalPathEvent, r.Events)
			}
		}
		return encode(t, rows)
	}
	requireIdentical(t, "workers grid JSON", run(1), run(4))
}

// TestGridEngineColumns pins the lookahead shape columns: sharded cells
// report null-message-bound advances (the mechanism is exercised on every
// multi-shard cell), and -rebalance marks its rows and stays
// deterministic across repeats.
func TestGridEngineColumns(t *testing.T) {
	base := gridConfig{
		protocols: []string{"cops"},
		mixes:     []string{"readheavy"},
		clients:   []int{8},
		txns:      []int{120}, pipeline: 1,
		servers: []int{4}, replication: []int{1},
		objects: 2, seed: 42, workers: 1,
	}
	grid := func(cfg gridConfig) []row {
		rows, err := buildGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(rows))
		}
		return rows
	}
	la := grid(base)[0]
	if la.Engine != "lookahead" || la.NullAdvances == 0 {
		t.Fatalf("lookahead cell must report null advances: %+v", la.shardCols)
	}
	if la.Rebalanced {
		t.Fatalf("unrebalanced cell marked rebalanced: %+v", la.shardCols)
	}
	rcfg := base
	rcfg.rebalance = true
	rb := grid(rcfg)[0]
	if !rb.Rebalanced {
		t.Fatalf("rebalanced cell not marked: %+v", rb.shardCols)
	}
	requireIdentical(t, "rebalance repeat", encode(t, rb), encode(t, grid(rcfg)[0]))
}

// TestGridServerSweep: the multi-server default sweep produces one cell
// per server count with shard count matching, and skips replication
// factors exceeding the cell's servers.
func TestGridServerSweep(t *testing.T) {
	rows, err := buildGrid(gridConfig{
		protocols: []string{"cops"},
		mixes:     []string{"readheavy"},
		clients:   []int{4},
		txns:      []int{60}, pipeline: 1,
		servers: []int{2, 4, 8}, replication: []int{1, 4},
		objects: 1, seed: 7, workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// servers 2: repl 1 only (4 > 2 skipped); servers 4 and 8: repl 1 and 4.
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	seen := map[[2]int]bool{}
	for _, r := range rows {
		seen[[2]int{r.Servers, r.Replication}] = true
		if r.Shards != r.Servers {
			t.Fatalf("cell %d servers has %d shards, want one per server", r.Servers, r.Shards)
		}
		if r.Committed == 0 {
			t.Fatalf("empty cell: %+v", r)
		}
	}
	for _, want := range [][2]int{{2, 1}, {4, 1}, {4, 4}, {8, 1}, {8, 4}} {
		if !seen[want] {
			t.Fatalf("missing cell servers=%d replication=%d", want[0], want[1])
		}
	}
}

// TestCertifyGrid: with certification on, every cell carries a verdict at
// the protocol's claimed level, and the deterministic fields (everything
// but the wall-clock) are identical across runs. cops (causal) must
// certify clean; naivefast is the theorem's victim and must be caught.
func TestCertifyGrid(t *testing.T) {
	cfg := gridConfig{
		protocols: []string{"cops", "naivefast"},
		mixes:     []string{"balanced"},
		clients:   []int{8},
		txns:      []int{96}, pipeline: 1,
		servers: []int{2}, replication: []int{1},
		objects: 1, seed: 2,
		certify: true, workers: 1,
	}
	run := func() []row {
		rows, err := buildGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	rows := run()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	byProto := map[string]row{}
	for _, r := range rows {
		if r.Cert == "" || r.CertLevel == "" || r.CertTxns == 0 {
			t.Fatalf("certification fields missing: %+v", r)
		}
		byProto[r.Protocol] = r
	}
	if byProto["cops"].Cert != "ok" {
		t.Fatalf("cops failed certification: %s", byProto["cops"].CertReason)
	}
	if byProto["cops"].FirstViolationTxn != nil {
		t.Fatalf("clean cell carries first_violation_txn %d", *byProto["cops"].FirstViolationTxn)
	}
	if byProto["naivefast"].Cert != "violation" {
		t.Fatal("naivefast certified clean — the harness lost the theorem's victim")
	}
	if fv := byProto["naivefast"].FirstViolationTxn; fv == nil || *fv < 0 || *fv >= byProto["naivefast"].CertTxns {
		t.Fatalf("violating cell must pin the first offending commit: %+v", fv)
	}
	// Everything except the wall-clocks must be deterministic.
	again := run()
	for i := range rows {
		a, b := rows[i], again[i]
		a.CertWallMS, b.CertWallMS = 0, 0
		a.CertBatchWallMS, b.CertBatchWallMS = 0, 0
		requireIdentical(t, "certify grid JSON", encode(t, a), encode(t, b))
	}
}

// TestGridTxnsSweepAndStale: -txns is a sweep axis (one full grid pass
// per count) and -stale adds the deterministic visibility-probe tallies
// to every row.
func TestGridTxnsSweepAndStale(t *testing.T) {
	cfg := gridConfig{
		protocols: []string{"cops"},
		mixes:     []string{"balanced"},
		clients:   []int{4},
		txns:      []int{60, 120}, pipeline: 1,
		servers: []int{2}, replication: []int{1},
		objects: 1, seed: 2, stale: true, workers: 1,
	}
	run := func() []row {
		rows, err := buildGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	rows := run()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want one per -txns count", len(rows))
	}
	for i, want := range []int{60, 120} {
		r := rows[i]
		if r.Txns != want {
			t.Fatalf("row %d txns = %d, want %d", i, r.Txns, want)
		}
		if r.StaleProbes == 0 {
			t.Fatalf("row %d carries no staleness probes: %+v", i, r.staleCols)
		}
		if r.StaleHits > r.StaleProbes || r.StaleIncomplete > r.StaleProbes {
			t.Fatalf("row %d staleness tallies exceed probes: %+v", i, r.staleCols)
		}
	}
	if rows[0].Committed >= rows[1].Committed {
		t.Fatalf("longer cell committed less: %d vs %d", rows[0].Committed, rows[1].Committed)
	}
	// The probe tallies are snapshot-deterministic, so the whole grid —
	// staleness columns included — must stay byte-diffable.
	requireIdentical(t, "stale grid JSON", encode(t, rows), encode(t, run()))
}

// TestCurveRefineKnee: -refineknee appends bisection rows after the
// swept fractions, marked refined with the doubled window in the txns
// column, without perturbing the swept rows.
func TestCurveRefineKnee(t *testing.T) {
	cfg := curveConfig{
		protocols: []string{"cops"}, mixes: []string{"readheavy"},
		fractions: []float64{0.1, 1.2}, clients: []int{4}, txns: []int{80},
		servers: []int{2}, replication: []int{1},
		objects: 2, seed: 7, workers: 1,
	}
	base, err := buildCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.refineKnee = true
	refined, err := buildCurve(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined) <= len(base) {
		t.Fatalf("refinement added no rows: %d vs %d", len(refined), len(base))
	}
	for i, r := range base {
		got := refined[i]
		// The refined sweep recomputes the knee over all points, so the
		// knee column may differ; everything else on a swept row must not.
		got.Knee = r.Knee
		requireIdentical(t, "swept curve row", encode(t, r), encode(t, got))
	}
	for _, r := range refined[len(base):] {
		if !r.Refined {
			t.Fatalf("bisection row not marked refined: %+v", r)
		}
		if r.Txns != 2*80 {
			t.Fatalf("bisection row txns = %d, want the doubled window", r.Txns)
		}
	}
}

// TestCurveJSONByteIdentical: same for the open-loop curve grid,
// including the Poisson arrival stream.
func TestCurveJSONByteIdentical(t *testing.T) {
	cfg := curveConfig{
		protocols: []string{"cops", "cure"},
		mixes:     []string{"readheavy"},
		fractions: []float64{0.1, 0.9},
		clients:   []int{4}, txns: []int{100},
		servers: []int{2}, replication: []int{1},
		objects: 2, seed: 42, workers: 1,
	}
	run := func() string {
		rows, err := buildCurve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return encode(t, rows)
	}
	requireIdentical(t, "curve JSON", run(), run())
}

// TestCurveGridShape checks the grid covers protocol × mix × rate and
// carries the open-loop fields.
func TestCurveGridShape(t *testing.T) {
	rows, err := buildCurve(curveConfig{
		protocols: []string{"cops"}, mixes: []string{"readheavy"},
		fractions: []float64{0.25, 1.2}, clients: []int{4}, txns: []int{80},
		servers: []int{2}, replication: []int{1},
		objects: 2, seed: 7, uniform: true, workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Arrivals != "uniform" || r.Saturated <= 0 || r.Offered <= 0 {
			t.Fatalf("malformed row: %+v", r)
		}
		if r.ServiceP50 <= 0 || r.Committed == 0 {
			t.Fatalf("open-loop fields missing: %+v", r)
		}
	}
	if rows[0].Knee != rows[1].Knee {
		t.Fatalf("knee differs within one curve: %f vs %f", rows[0].Knee, rows[1].Knee)
	}
}

// TestGridTopology is the bench-level tentpole pin: a -topology
// uniform,2site sweep emits one row per topology per cell, the 2site
// rows carry the topology/sites columns (uniform rows omit them, so
// pre-topology grids stay byte-diffable), and the 2site cell's round
// count is pinned — the per-link cross-site floors reaching sim's
// shard-pair bounds. Deterministic across repeats.
func TestGridTopology(t *testing.T) {
	base := gridConfig{
		protocols: []string{"cops"},
		mixes:     []string{"readheavy"},
		clients:   []int{8},
		txns:      []int{120}, pipeline: 1,
		servers: []int{4}, replication: []int{1},
		topologies: []string{"uniform", "2site"},
		objects:    2, seed: 42, workers: 1,
	}
	grid := func(cfg gridConfig) []row {
		rows, err := buildGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("rows = %d, want uniform + 2site", len(rows))
		}
		return rows
	}
	la := grid(base)
	if la[0].Topology != "" || la[0].Sites != 0 {
		t.Fatalf("uniform row carries topology columns: %+v", la[0])
	}
	if la[1].Topology != "2site" || la[1].Sites != 2 {
		t.Fatalf("2site row mislabeled: %+v", la[1])
	}
	if la[1].Committed != 120 || la[1].Rounds != 183 {
		t.Fatalf("2site cell committed %d in %d rounds, want 120 in 183", la[1].Committed, la[1].Rounds)
	}
	requireIdentical(t, "topology grid JSON", encode(t, la), encode(t, grid(base)))
	if _, err := buildGrid(gridConfig{
		protocols: []string{"cops"}, mixes: []string{"readheavy"},
		clients: []int{2}, txns: []int{10}, pipeline: 1,
		servers: []int{2}, replication: []int{1},
		topologies: []string{"moonbase"}, objects: 1, seed: 1, workers: 1,
	}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

// TestGridNemesisAcceptance is the bench-level acceptance pair of the
// fault layer: a certified 2000-txn cops cell with mid-run server
// crash+restart, and a 2-site cure cell with a cross-site partition+heal.
// Both must carry nonzero recovery-latency and unavailability columns and
// emit byte-identical JSON with Workers=1 and Workers=4. (cure's
// documented visibility fracture may surface under the
// partition's reshuffled delivery — then the cell must pin the first
// offending commit instead of certifying clean.)
func TestGridNemesisAcceptance(t *testing.T) {
	cells := []struct {
		name string
		cfg  gridConfig
	}{
		{"cops-crash", gridConfig{
			protocols: []string{"cops"}, mixes: []string{"balanced"},
			clients: []int{8}, txns: []int{2000}, pipeline: 1,
			servers: []int{4}, replication: []int{1},
			objects: 2, seed: 11, certify: true, nemesis: "crash",
		}},
		{"cure-2site-partition", gridConfig{
			protocols: []string{"cure"}, mixes: []string{"balanced"},
			clients: []int{8}, txns: []int{400}, pipeline: 1,
			servers: []int{4}, replication: []int{1},
			topologies: []string{"2site"},
			objects:    2, seed: 11, certify: true, nemesis: "partition",
		}},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			t.Run("lookahead", func(t *testing.T) {
				t.Parallel()
				run := func(workers int) []row {
					cfg := cell.cfg
					cfg.workers = workers
					rows, err := buildGrid(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(rows) != 1 {
						t.Fatalf("rows = %d, want 1", len(rows))
					}
					return rows
				}
				rows := run(1)
				r := rows[0]
				if r.Incomplete != 0 {
					t.Fatalf("%d transactions incomplete after heal", r.Incomplete)
				}
				if r.NemFaults == 0 || r.NemUnavailableUs <= 0 {
					t.Fatalf("fault columns empty: %+v", r.nemCols)
				}
				if r.NemRecoveries == 0 || r.NemRecoveryP50Us <= 0 {
					t.Fatalf("no recovery latency measured: %+v", r.nemCols)
				}
				if r.NemFaultedCommitted == 0 {
					t.Fatalf("no commits crossed the fault window: %+v", r.nemCols)
				}
				if r.NemLostMsgs != 0 {
					t.Fatalf("persistent faults lost %d messages", r.NemLostMsgs)
				}
				switch r.Cert {
				case "ok":
					// Certified clean across the fault.
				case "violation":
					if r.FirstViolationTxn == nil || *r.FirstViolationTxn < 0 {
						t.Fatalf("violating cell without a pinned first commit: %+v", r.certCols)
					}
					t.Logf("documented fracture pinned at commit %d (%s)",
						*r.FirstViolationTxn, r.CertReason)
				default:
					t.Fatalf("certification did not run: %+v", r.certCols)
				}
				// Worker-count byte-identity (wall-clocks are the one
				// nondeterministic column set).
				again := run(4)
				a, b := rows[0], again[0]
				a.CertWallMS, b.CertWallMS = 0, 0
				a.CertBatchWallMS, b.CertBatchWallMS = 0, 0
				requireIdentical(t, "nemesis cell", encode(t, a), encode(t, b))
			})
		})
	}
}

// TestGridReconfigDeterministic: same flags → byte-identical grids for a
// -nemesis replace cell, and the row is byte-identical across worker
// counts (the determinism contract extends to reconfiguration schedules).
// The replacement catch-up cost must surface in the nem_sync_* columns:
// versions adopted, sync time, and an unavailability window, with nothing
// lost.
func TestGridReconfigDeterministic(t *testing.T) {
	cfg := gridConfig{
		protocols: []string{"cops"}, mixes: []string{"balanced"},
		clients: []int{8}, txns: []int{400}, pipeline: 1,
		servers: []int{2}, replication: []int{1},
		objects: 2, seed: 5, workers: 1, certify: true, nemesis: "replace",
	}
	run := func(workers int) []row {
		c := cfg
		c.workers = workers
		rows, err := buildGrid(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(rows))
		}
		return rows
	}
	rows := run(1)
	r := rows[0]
	if r.Incomplete != 0 {
		t.Fatalf("%d transactions incomplete after the replacement caught up", r.Incomplete)
	}
	if r.NemReplacements == 0 {
		t.Fatalf("replace cell applied no replacement: %+v", r.nemCols)
	}
	if r.NemSyncVersions == 0 || r.NemSyncTimeUs <= 0 {
		t.Fatalf("replacement adopted no state: %+v", r.nemCols)
	}
	if r.NemUnavailableUs <= 0 {
		t.Fatalf("replacement cell reports no unavailability: %+v", r.nemCols)
	}
	if r.NemLostMsgs != 0 {
		t.Fatalf("non-lossy replacement lost %d messages", r.NemLostMsgs)
	}
	if r.Cert != "ok" {
		t.Fatalf("replace cell did not certify clean: %+v", r.certCols)
	}
	// Same flags → byte-identical (wall-clocks are the one
	// nondeterministic column set), and workers is not a schedule input.
	norm := func(rs []row) string {
		rs[0].CertWallMS, rs[0].CertBatchWallMS = 0, 0
		return encode(t, rs)
	}
	first := norm(rows)
	requireIdentical(t, "replace cell JSON (same flags)", first, norm(run(1)))
	requireIdentical(t, "replace cell JSON (W1 vs W4)", first, norm(run(4)))
}

// TestGridNemesisDeterministicAndGated: same flags → byte-identical
// nemesis grids (the bench determinism contract extends to faulted
// cells); fault-free grids omit every nem_* column; unknown schedule
// names and -nemesis under -curve are refused.
func TestGridNemesisDeterministicAndGated(t *testing.T) {
	cfg := gridConfig{
		protocols: []string{"cops"}, mixes: []string{"balanced"},
		clients: []int{8}, txns: []int{150}, pipeline: 1,
		servers: []int{2}, replication: []int{1},
		objects: 2, seed: 5, workers: 1, nemesis: "crash+partition",
	}
	run := func() string {
		rows, err := buildGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].NemCrashes == 0 || rows[0].NemPartitions == 0 {
			t.Fatalf("crash+partition cell missing fault kinds: %+v", rows[0].nemCols)
		}
		return encode(t, rows)
	}
	requireIdentical(t, "nemesis grid JSON", run(), run())

	plain := cfg
	plain.nemesis = ""
	rows, err := buildGrid(plain)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].nemCols != (nemCols{}) {
		t.Fatalf("fault-free row carries nemesis columns: %+v", rows[0].nemCols)
	}
	bad := cfg
	bad.nemesis = "meteor"
	if _, err := buildGrid(bad); err == nil {
		t.Fatal("unknown nemesis schedule accepted")
	}
}
