package ledger

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.xs); !near(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected cut points are what Python prints for
// statistics.quantiles(xs, n=4): the benchmark's spreads must agree with
// a check made from outside.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{12020, 12160, 12412, 13021, 13287, 14595, 14860}, 12160, 13021, 14595},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := Summarize("s", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).Spread(); !near(got, 1) {
		t.Errorf("Spread = %v, want 1", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 … 1, unsorted on purpose
	}
	if v, ok := Percentile(xs, 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v ok=%v, want 990 true", v, ok)
	}
	if v, ok := Percentile(xs[:999], 99); v != 991 || ok {
		t.Errorf("p99 of 2..1000 = %v ok=%v, want 991 false (9 samples beyond)", v, ok)
	}
	if v, ok := Percentile(xs, 50); v != 500 || !ok {
		t.Errorf("p50 = %v ok=%v, want 500 true", v, ok)
	}
	if _, ok := Percentile(nil, 99); ok {
		t.Error("p99 of nothing reported ok")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "cell", Start: 0, End: 100, Parent: -1},
		{Name: "run", Start: 10, End: 40, Parent: 0},
		{Name: "session", Start: 30, End: 70, Parent: 0},   // overlaps run: [30,40) counts once
		{Name: "append", Start: 35, End: 60, Parent: 2},    // a grandchild takes nothing from the root
		{Name: "late", Start: 90, End: 130, Parent: 0},     // clipped to the parent's end
		{Name: "outside", Start: 200, End: 300, Parent: 0}, // entirely outside: ignored
	}
	for i, want := range []int64{100 - 60 - 10, 30, 40 - 25, 25, 40, 100} {
		if got := SelfTime(spans, i); got != want {
			t.Errorf("SelfTime(%s) = %d, want %d", spans[i].Name, got, want)
		}
	}
}

func TestRecorderNestsAndDisables(t *testing.T) {
	r := NewRecorder("w")
	outer := r.Begin("outer", "driver", "c")
	inner := r.Begin("inner", "history", "c")
	r.End(inner, map[string]int64{"appends": 3})
	r.End(outer, nil)
	r.Disabled = true
	r.End(r.Begin("dropped", "x", "c"), nil)
	s := r.Spans()
	if len(s) != 2 || s[0].Parent != -1 || s[1].Parent != 0 || s[1].Counts["appends"] != 3 {
		t.Fatalf("spans = %+v", s)
	}
	if s[0].Start > s[1].Start || s[1].End > s[0].End || s[0].Workload != "w" {
		t.Fatalf("inner span not inside outer: %+v", s)
	}
}

func TestPlanShape(t *testing.T) {
	ws := Workloads(2)
	if len(ws) != 4 {
		t.Fatalf("%d workloads, want 4", len(ws))
	}
	for _, w := range ws {
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("%s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		for _, c := range w.Commands {
			args := strings.Join(c.Args(7), " ")
			if c.Workers < 1 || strings.Contains(args, "-barrier") || !strings.Contains(args, "-seed 7") {
				t.Errorf("%s: command uses a flag ROADMAP drops or loses the seed: %s", w.Name, args)
			}
		}
	}
	cert := ws[2]
	if got := cert.Seeds(3); len(got) != 16 || got[0] != 3000 || got[15] != 3015 {
		t.Errorf("cert-ride sub-seeds of 3 = %v", got)
	}
	if got := ws[0].Seeds(3); len(got) != 1 || got[0] != 3 {
		t.Errorf("load-reads seeds of 3 = %v", got)
	}
	if n := ws[0].Reps(20); n != 2 {
		t.Errorf("load-reads reps at 20 s = %d, want 2", n)
	}
	if n := cert.Reps(1); n != 1 {
		t.Errorf("reps at 1 s = %d, want at least 1", n)
	}
	if got := strings.Join(ws[3].Commands[0].Args(1), " "); !strings.Contains(got, "-curve -curveclients 32 -fractions 0.25,0.5,0.9,1.1") {
		t.Errorf("curve command = %s", got)
	}
	if n := ws[3].Commands[0].Rows(); n != 8 {
		t.Errorf("curve rows = %d, want 8", n)
	}
}

func TestPerLayerNamesUniqueAndBounded(t *testing.T) {
	seen := map[string]bool{}
	ms := PerLayer()
	if len(ms) > 128 {
		t.Fatalf("%d per-layer metrics, the contract allows 128", len(ms))
	}
	for _, m := range append(ms, EndToEnd...) {
		if seen[m.Name] || len(m.Name) > 64 || m.Unit == "" || len(m.Unit) > 16 {
			t.Errorf("bad or duplicate metric %+v", m)
		}
		seen[m.Name] = true
	}
	cells := 0
	for name := range seen {
		if strings.HasPrefix(name, "driver.run_wall_s.") {
			cells++
		}
	}
	if cells != 14 {
		t.Errorf("%d driver.run_wall_s cells, want 14", cells)
	}
}
