package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/cmd/perf/ledger"
)

// verdict judges one end-to-end metric of one workload between two sets
// by the metric's bound: unresolved when either side's own q1-q3
// distance, as a share of its median, exceeds the bound (the runs cannot
// carry the claim either way); worse when B's median is worse than A's
// by more than the bound; ok otherwise.
func verdict(m ledger.Metric, a, b ledger.Summary) string {
	if a.Spread() > m.Bound || b.Spread() > m.Bound {
		return "unresolved"
	}
	change := (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		change = -change
	}
	if change > m.Bound {
		return "worse"
	}
	return "ok"
}

func readSet(path string) (set, error) {
	var s set
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints one row per workload × end-to-end metric and one
// per digest, and reports whether anything is worse or any digest
// differs (sets of different seeds have different digests by design).
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  commit %s seed %d load %.2f\nB: %s  commit %s seed %d load %.2f\n",
		pathA, a.Env.Commit, a.Env.Seed, a.Env.LoadAvg1, pathB, b.Env.Commit, b.Env.Seed, b.Env.LoadAvg1)
	byName := map[string]workloadSet{}
	for _, ws := range b.Workloads {
		byName[ws.Name] = ws
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from B\n", wa.Name)
			bad = true
			continue
		}
		for _, m := range ledger.EndToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			v := verdict(m, sa, sb)
			bad = bad || v == "worse"
			fmt.Fprintf(w, "%-16s %-12s %-10s A %.4f (n=%d) -> B %.4f (n=%d) %s, %+.1f%% against a bound of %.0f%%\n",
				wa.Name, m.Name, v, sa.Median, sa.N, sb.Median, sb.N, m.Unit, 100*(sb.Median-sa.Median)/sa.Median, 100*m.Bound)
		}
		same := "identical"
		if wa.Digest != wb.Digest {
			same = "DIFFERENT"
			bad = true
		}
		fmt.Fprintf(w, "%-16s %-12s %-10s\n", wa.Name, "digest", same)
		if wa.Failed != 0 || wb.Failed != 0 {
			fmt.Fprintf(w, "%-16s %-12s A %d, B %d of %d\n", wa.Name, "failed", wa.Failed, wb.Failed, wb.Attempted)
			bad = true
		}
	}
	return bad, nil
}
