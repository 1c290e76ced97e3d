package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/perf/ledger"
)

const certifiedGrid = `[
  {
    "protocol": "cops",
    "txns": 1000,
    "committed": 1000,
    "rejected": 0,
    "incomplete": 0,
    "cert": "ok",
    "cert_txns": 1000,
    "cert_wall_ms": 391.62,
    "cert_batch_wall_ms": 39.031
  }
]
`

func TestStripWallDropsOnlyTheWallClockLines(t *testing.T) {
	other := strings.ReplaceAll(strings.ReplaceAll(certifiedGrid, "391.62", "402.118"), "39.031", "41.5")
	a, b := stripWall([]byte(certifiedGrid)), stripWall([]byte(other))
	if string(a) != string(b) {
		t.Fatalf("grids differing only in wall-clock fields digest differently:\n%s\n%s", a, b)
	}
	if strings.Contains(string(a), "wall_ms") {
		t.Fatalf("wall-clock field survived:\n%s", a)
	}
	for _, keep := range []string{`"cert": "ok"`, `"cert_txns": 1000`, `"committed": 1000`} {
		if !strings.Contains(string(a), keep) {
			t.Errorf("stripWall dropped %s", keep)
		}
	}
	changed := strings.Replace(certifiedGrid, `"committed": 1000`, `"committed": 999`, 1)
	if string(stripWall([]byte(changed))) == string(a) {
		t.Error("a deterministic field changed and the stripped grid did not")
	}
}

func TestCheckRows(t *testing.T) {
	cert := ledger.Command{Cell: "cert.cops-reads", Protocols: []string{"cops"}, Txns: 1000, Certify: true}
	if got := checkRows(cert, []byte(certifiedGrid)); got.attempted != 1000 || got.failed != 0 || got.done != 1000 || len(got.problems) != 0 {
		t.Errorf("clean certified row: %+v", got)
	}
	violated := strings.Replace(certifiedGrid, `"cert": "ok"`, `"cert": "violation", "first_violation_txn": 467`, 1)
	if got := checkRows(cert, []byte(violated)); got.failed != 1000 || got.done != 0 || len(got.problems) != 1 {
		t.Errorf("cops violating must fail the whole cell: %+v", got)
	}
	naive := ledger.Command{Cell: "cert.naivefast", Protocols: []string{"naivefast"}, Txns: 1000, Certify: true}
	asNaive := strings.Replace(violated, `"cops"`, `"naivefast"`, 1)
	if got := checkRows(naive, []byte(asNaive)); got.failed != 0 || got.done != 0 || len(got.problems) != 0 {
		t.Errorf("naivefast violating is the expected verdict and certifies nothing: %+v", got)
	}
	asNaiveClean := strings.Replace(certifiedGrid, `"cops"`, `"naivefast"`, 1)
	if got := checkRows(naive, []byte(asNaiveClean)); got.failed != 1000 || len(got.problems) != 1 {
		t.Errorf("naivefast certifying clean must fail: %+v", got)
	}
	short := strings.Replace(certifiedGrid, `"committed": 1000`, `"committed": 990`, 1)
	short = strings.Replace(short, `"incomplete": 0`, `"incomplete": 10`, 1)
	if got := checkRows(cert, []byte(short)); got.failed != 10 || got.done != 0 || len(got.problems) != 1 {
		t.Errorf("incomplete transactions: %+v", got)
	}
	if got := checkRows(cert, []byte("panic: boom")); got.failed != got.attempted || got.attempted != 1000 {
		t.Errorf("unparseable output must fail every transaction: %+v", got)
	}
	two := ledger.Command{Tag: "reads", Protocols: []string{"cops", "cure"}, Txns: 1000}
	if got := checkRows(two, []byte(certifiedGrid)); len(got.problems) != 1 {
		t.Errorf("a missing row must be reported: %+v", got)
	}
}

func TestCheckImpossibility(t *testing.T) {
	good := "cops: sacrifices W — rejected\neigerps: sacrifices minimal-progress — after 8 steps\n" +
		"naivefast: sacrifices consistency — mixed read\n  witness: naivefast: sacrifices nothing\ntwopcfast: sacrifices consistency — mixed read\n"
	if p := checkImpossibility([]byte(good)); len(p) != 0 {
		t.Errorf("theorem verdicts rejected: %v", p)
	}
	extra := good + "wren: sacrifices consistency — oops\n"
	if p := checkImpossibility([]byte(extra)); len(p) != 1 || !strings.Contains(p[0], "wren") {
		t.Errorf("a fourth victim must be reported: %v", p)
	}
	if p := checkImpossibility([]byte("cops: sacrifices W\n")); len(p) != 2 {
		t.Errorf("missing victims must be reported: %v", p)
	}
}

func TestVerdict(t *testing.T) {
	wall, tps := ledger.EndToEnd[0], ledger.EndToEnd[1]
	if wall.Name != "wall_s" || tps.Name != "txns_per_s" {
		t.Fatalf("end-to-end order changed: %s, %s", wall.Name, tps.Name)
	}
	tight := func(m float64) ledger.Summary { return ledger.Summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 4} }
	loose := ledger.Summary{Median: 10, Q1: 8, Q3: 12, N: 4}
	for _, c := range []struct {
		name string
		m    ledger.Metric
		a, b ledger.Summary
		want string
	}{
		{"same", wall, tight(10), tight(10.2), "ok"},
		{"slower past the bound", wall, tight(10), tight(10 * (1 + wall.Bound + 0.02)), "worse"},
		{"faster is never worse", wall, tight(10), tight(5), "ok"},
		{"lower throughput past the bound", tps, tight(1000), tight(1000 * (1 - tps.Bound - 0.02)), "worse"},
		{"higher throughput", tps, tight(1000), tight(2000), "ok"},
		{"spread wider than the bound", wall, loose, tight(20), "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, digest string) string {
		ws := workloadSet{Name: "load-reads", Digest: digest, Attempted: 10, Metrics: map[string]ledger.Summary{}}
		for _, m := range ledger.EndToEnd {
			ws.Metrics[m.Name] = ledger.Summary{Unit: m.Unit, Median: 10, Q1: 9.9, Q3: 10.1, N: 4}
		}
		ws.Metrics["wall_s"] = ledger.Summary{Unit: "s", Median: wall, Q1: wall * 0.99, Q3: wall * 1.01, N: 4}
		data, err := json.Marshal(set{Workloads: []workloadSet{ws}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 10, "d1")
	var out strings.Builder
	if bad, err := compareFiles(&out, a, write("b.json", 10.3, "d1")); err != nil || bad {
		t.Errorf("two agreeing sets compared bad=%v err=%v:\n%s", bad, err, out.String())
	}
	out.Reset()
	if bad, _ := compareFiles(&out, a, write("c.json", 14, "d1")); !bad || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 40%% slower set must be worse:\n%s", out.String())
	}
	out.Reset()
	if bad, _ := compareFiles(&out, a, write("d.json", 10, "d2")); !bad || !strings.Contains(out.String(), "DIFFERENT") {
		t.Errorf("differing digests must be reported:\n%s", out.String())
	}
}

// BENCHMARK.json is the contract the driver reads; the ledger package is
// what the programs run. They must say the same thing.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "go run ./cmd/perf" || len(b.Paths) != 1 || b.Paths[0] != "cmd/perf" {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	wls := ledger.Workloads(2)
	if len(b.Workloads) != len(wls) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the plan", len(b.Workloads), len(wls))
	}
	for i, w := range wls {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs plan %s", i, b.Workloads[i], w.Name)
		}
		if n := w.Reps(float64(b.RunSeconds)); n < 1 || n > 2 {
			t.Errorf("%s: %d reps at run_seconds=%d; the time cap was sized for 1-2", w.Name, n, b.RunSeconds)
		}
	}
	if len(b.EndToEnd) != len(ledger.EndToEnd) {
		t.Fatalf("%d end-to-end metrics, ledger has %d", len(b.EndToEnd), len(ledger.EndToEnd))
	}
	for i, m := range ledger.EndToEnd {
		if got := b.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v vs ledger %+v", i, got, m)
		}
	}
	layers := ledger.PerLayer()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics, ledger has %d", len(b.PerLayer), len(layers))
	}
	for i, m := range layers {
		if got := b.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: %+v vs ledger %+v", i, got, m)
		}
	}
}
