package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// sweepOf parses a command line the way main does.
func sweepOf(t *testing.T, line string) sweep {
	t.Helper()
	s, err := parseSweep(strings.Fields(line), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

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
	cfg := sweepOf(t, "-protocols cops,spanner -mixes readheavy,balanced -clients 2,8 -txns 120 -servers 2")
	run := func() string {
		rows, err := buildGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return encode(t, rows)
	}
	requireIdentical(t, "grid JSON", run(), run())
}

// TestGridWorkersByteIdentical is the bench-level contract of -workers:
// it decides how many cells of the sweep run at once and nothing else.
// Cells share nothing and rows keep sweep order, so a grid with more cells
// than workers, fewer cells than workers, and a -curve sweep each emit
// byte-identical JSON at every count, -workers 1 being the oracle; and a
// failing sweep fails the same way at every count, with the error of its
// first failing cell in sweep order.
func TestGridWorkersByteIdentical(t *testing.T) {
	counts := []int{2, 4, 64}
	base := sweepOf(t, "-protocols cops,cure,spanner -clients 8 -txns 120 -servers 2,4")
	run := func(workers int) string {
		cfg := base
		cfg.workers = workers
		rows, err := buildGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Fatalf("%d rows, want the sweep's 6 cells", len(rows))
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
	want := run(1)
	for _, workers := range counts {
		requireIdentical(t, "workers grid JSON", want, run(workers))
	}

	curveBase := sweepOf(t, "-curve -protocols cops,eiger -servers 2,4 -curveclients 4 -txns 60 -fractions 0.5,1.1")
	curve := func(workers int) string {
		cfg := curveBase
		cfg.workers = workers
		rows, err := buildCurve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return encode(t, rows)
	}
	want = curve(1)
	for _, workers := range counts {
		requireIdentical(t, "workers curve JSON", want, curve(workers))
	}

	// The sweep's 2nd and 4th cells (cops and cure at 4 servers) fail: the
	// 2nd's error comes back whatever the count, and serially nothing is
	// started past it.
	for _, workers := range append([]int{1}, counts...) {
		cfg := base
		cfg.workers = workers
		var started atomic.Int64
		_, err := measureCells(cfg, func(c cell) ([]int, error) {
			started.Add(1)
			if c.cfg.Servers == 4 && c.p.Name() != "spanner" {
				return nil, fmt.Errorf("%s at %d servers", c.p.Name(), c.cfg.Servers)
			}
			return []int{c.cfg.Servers}, nil
		})
		if err == nil || err.Error() != "cops at 4 servers" {
			t.Errorf("-workers %d: error %v, want the 2nd cell's (cops at 4 servers)", workers, err)
		}
		if n := started.Load(); workers == 1 && n != 2 {
			t.Errorf("-workers 1: %d cells started, want 2 (none after the failure)", n)
		}
	}
}

// TestGridEngineColumns pins the lookahead shape columns: sharded cells
// report null-message-bound advances (the mechanism is exercised on every
// multi-shard cell).
func TestGridEngineColumns(t *testing.T) {
	rows, err := buildGrid(sweepOf(t, "-protocols cops -clients 8 -txns 120 -servers 4"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	la := rows[0]
	if la.Engine != "lookahead" || la.NullAdvances == 0 {
		t.Fatalf("lookahead cell must report null advances: %+v", la.shardCols)
	}
}

// TestGridServerSweep: the multi-server default sweep produces one cell
// per server count with shard count matching, and skips replication
// factors exceeding the cell's servers.
func TestGridServerSweep(t *testing.T) {
	rows, err := buildGrid(sweepOf(t, "-protocols cops -clients 4 -txns 60 -servers 2,4,8 -replication 1,4 -objects 1 -seed 7 -workers 2"))
	if err != nil {
		t.Fatal(err)
	}
	// servers 2: repl 1 only (4 > 2 skipped); servers 4 and 8: repl 1 and 4.
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for i, want := range [][2]int{{2, 1}, {4, 1}, {4, 4}, {8, 1}, {8, 4}} {
		if got := [2]int{rows[i].Servers, rows[i].Replication}; got != want {
			t.Fatalf("row %d is cell servers=%d replication=%d, want %v: the sweep order moved", i, got[0], got[1], want)
		}
	}
	for _, r := range rows {
		if r.Shards != r.Servers {
			t.Fatalf("cell %d servers has %d shards, want one per server", r.Servers, r.Shards)
		}
		if r.Committed == 0 {
			t.Fatalf("empty cell: %+v", r)
		}
	}
}

// TestCertifyGrid: with certification on, every cell carries a verdict at
// the protocol's claimed level, and the rows are identical across runs.
// cops (causal) must certify clean; naivefast is the theorem's victim and
// must be caught.
func TestCertifyGrid(t *testing.T) {
	cfg := sweepOf(t, "-certify -protocols cops,naivefast -mixes balanced -clients 8 -txns 96 -servers 2 -objects 1 -seed 2")
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
	requireIdentical(t, "certify grid JSON", encode(t, rows), encode(t, run()))
}

// TestReplicatedGentleRainCertifies: gentlerain reads at the GST, the
// minimum clock its server has heard from every server. A server's clock
// moves when it installs a write, and writes go to the primary only, so
// each server must be primary of some object: a server primary of none
// never moves its clock, the GST stays zero and every read returns ⊥.
func TestReplicatedGentleRainCertifies(t *testing.T) {
	rows, err := buildGrid(sweepOf(t, "-certify -protocols gentlerain -replication 2 -servers 2 -clients 2 -txns 20 -seed 1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0].Cert != "ok" {
		t.Fatalf("replicated gentlerain cell: %s (%s)", rows[0].Cert, rows[0].CertReason)
	}
}

// TestGridTxnsSweepAndStale: -txns is a sweep axis (one full grid pass
// per count) and -stale adds the deterministic visibility-probe tallies
// to every row.
func TestGridTxnsSweepAndStale(t *testing.T) {
	cfg := sweepOf(t, "-stale -protocols cops -mixes balanced -clients 4 -txns 60,120 -servers 2 -objects 1 -seed 2")
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

// TestCurveJSONByteIdentical: same for the open-loop curve grid,
// including the Poisson arrival stream.
func TestCurveJSONByteIdentical(t *testing.T) {
	cfg := sweepOf(t, "-curve -protocols cops,cure -fractions 0.1,0.9 -curveclients 4 -txns 100 -servers 2")
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
	rows, err := buildCurve(sweepOf(t, "-curve -arrivals uniform -protocols cops -fractions 0.25,1.2 -curveclients 4 -txns 80 -servers 2 -seed 7"))
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
	base := sweepOf(t, "-topology uniform,2site -protocols cops -clients 8 -txns 120 -servers 4")
	grid := func(cfg sweep) []row {
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
	if _, err := buildGrid(sweepOf(t, "-topology moonbase -protocols cops -clients 2 -txns 10 -servers 2 -objects 1 -seed 1")); err == nil {
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
		line string
	}{
		{"cops-crash", "-certify -nemesis crash -protocols cops -mixes balanced -clients 8 -txns 2000 -servers 4 -seed 11"},
		{"cure-2site-partition", "-certify -nemesis partition -topology 2site -protocols cure -mixes balanced -clients 8 -txns 400 -servers 4 -seed 11"},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			t.Run("lookahead", func(t *testing.T) {
				t.Parallel()
				run := func(workers int) []row {
					cfg := sweepOf(t, cell.line)
					cfg.cell.Workers = workers
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
				// Worker-count byte-identity.
				requireIdentical(t, "nemesis cell", encode(t, rows), encode(t, run(4)))
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
	cfg := sweepOf(t, "-certify -nemesis replace -protocols cops -mixes balanced -clients 8 -txns 400 -servers 2 -seed 5")
	run := func(workers int) []row {
		c := cfg
		c.cell.Workers = workers
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
	// Same flags → byte-identical, and workers is not a schedule input.
	first := encode(t, rows)
	requireIdentical(t, "replace cell JSON (same flags)", first, encode(t, run(1)))
	requireIdentical(t, "replace cell JSON (W1 vs W4)", first, encode(t, run(4)))
}

// TestGridNemesisDeterministicAndGated: same flags → byte-identical
// nemesis grids (the bench determinism contract extends to faulted
// cells); fault-free grids omit every nem_* column. (Unknown schedule
// names and -nemesis under -curve: TestRunRefusals.)
func TestGridNemesisDeterministicAndGated(t *testing.T) {
	cfg := sweepOf(t, "-nemesis crash+partition -protocols cops -mixes balanced -clients 8 -txns 150 -servers 2 -seed 5")
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
	plain.cell.Nemesis = nil
	rows, err := buildGrid(plain)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].nemCols != (nemCols{}) {
		t.Fatalf("fault-free row carries nemesis columns: %+v", rows[0].nemCols)
	}
}

// TestCurveTopology extends TestGridTopology to curve mode: a 2site curve
// row is measured on the 2-site deployment it is labelled with — at half
// of saturation its service p50 is the protocol's round trips, which no
// 2site cell serves under one cross-site round trip (2×2000µs) — and is
// byte-identical across worker counts.
func TestCurveTopology(t *testing.T) {
	cfg := sweepOf(t, "-curve -topology uniform,2site -protocols cops -servers 4 -curveclients 8 -txns 400 -fractions 0.5")
	curve := func(workers int) []curveRow {
		cfg.cell.Workers = workers
		rows, err := buildCurve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("rows = %d, want uniform + 2site", len(rows))
		}
		return rows
	}
	rows := curve(1)
	uniform, geo := rows[0], rows[1]
	if uniform.Topology != "" || geo.Topology != "2site" || geo.Sites != 2 {
		t.Fatalf("topology columns mislabeled: %+v / %+v", uniform.cellCols, geo.cellCols)
	}
	if geo.ServiceP50 <= uniform.ServiceP50 || geo.ServiceP50 < 4000 {
		t.Fatalf("2site row served at p50 %dµs (uniform row %dµs): its points ran on the uniform deployment",
			geo.ServiceP50, uniform.ServiceP50)
	}
	requireIdentical(t, "2site curve JSON (W1 vs W4)", encode(t, rows), encode(t, curve(4)))
}

// TestRunRefusals: a flag the selected mode does not read, an empty sweep,
// a malformed value and a deleted flag are each refused with a reason
// naming the flag, with nothing on stdout.
func TestRunRefusals(t *testing.T) {
	for _, tc := range []struct{ line, names string }{
		{"-curve -stale", "-stale"},
		{"-curve -pipeline 4", "-pipeline"},
		{"-curve -clients 4", "-clients"},
		{"-curve -nemesis crash", "-nemesis"},
		{"-arrivals uniform", "-arrivals"},
		{"-curveclients 3", "-curveclients"},
		{"-fractions 0.5", "-fractions"},
		{"-servers 2 -replication 3", "-replication"},
		{"-workers 0", "-workers"},
		{"-objects 0", "-objects"},
		{"-pipeline 0", "-pipeline"},
		{"-nemesis meteor", "meteor"},
		{"-curve -arrivals burst", "burst"},
		{"-curve -curveclients x", "-curveclients"},
		{"-curve -fractions NaN", "-fractions"},
		{"-curve -fractions Inf", "-fractions"},
		{"-barrier", "-barrier"},
		{"-refineknee", "-refineknee"},
		{"-rebalance", "-rebalance"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(strings.Fields(tc.line), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%q: error %v, want a refusal naming %s", tc.line, err, tc.names)
			continue
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("%q: reason is not one line: %q", tc.line, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: refused but printed %q", tc.line, stdout.String())
		}
	}
}

// TestRunAccepts drives flags → sweep → rows → JSON in-process, one line
// per mode; the mixed -servers/-replication sweep skips only its 2×3 cell.
// Both modes take -cpuprofile/-memprofile: the profiles land in the named
// files and the grid on stdout keeps its bytes.
func TestRunAccepts(t *testing.T) {
	for _, tc := range []struct {
		line string
		rows int
	}{
		{"-protocols cops -clients 4 -txns 60 -servers 2,4 -replication 1,3 -stale -pipeline 2", 3},
		{"-curve -arrivals uniform -protocols cops -curveclients 4 -txns 60 -servers 2 -fractions 0.1,1.2", 2},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(tc.line), &stdout, &stderr); err != nil {
			t.Fatalf("%q: %v", tc.line, err)
		}
		var rows []map[string]any
		if err := json.Unmarshal(stdout.Bytes(), &rows); err != nil {
			t.Fatalf("%q: stdout is not a JSON grid: %v", tc.line, err)
		}
		if len(rows) < tc.rows || stderr.Len() != 0 {
			t.Fatalf("%q: %d rows (want ≥ %d), stderr %q", tc.line, len(rows), tc.rows, stderr.String())
		}
		for _, r := range rows {
			if r["protocol"] != "cops" || r["incomplete"] != 0.0 {
				t.Fatalf("%q: malformed row %v", tc.line, r)
			}
		}

		cpu, mem := filepath.Join(t.TempDir(), "cpu.pprof"), filepath.Join(t.TempDir(), "mem.pprof")
		var profiled bytes.Buffer
		if err := run(append(strings.Fields(tc.line), "-cpuprofile", cpu, "-memprofile", mem), &profiled, &stderr); err != nil {
			t.Fatalf("%q with profiles: %v", tc.line, err)
		}
		if !bytes.Equal(profiled.Bytes(), stdout.Bytes()) || stderr.Len() != 0 {
			t.Fatalf("%q: profiling changed the output (stderr %q)", tc.line, stderr.String())
		}
		for _, f := range []string{cpu, mem} {
			if st, err := os.Stat(f); err != nil || st.Size() == 0 {
				t.Fatalf("%q: profile %s missing or empty: %v", tc.line, f, err)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-txns", "10", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir")}, &stdout, &stderr); err == nil || stdout.Len() != 0 {
		t.Fatalf("unwritable -cpuprofile: err %v, stdout %q", err, stdout.String())
	}
}
