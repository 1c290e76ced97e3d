package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/verdicts.txt from the sweeps")

// verdictSweeps are the four certified sweeps the verdict map covers:
// every model on both mixes at 2, 4 and 8 servers, each object on one
// server and on two, seeds 1 and 42.
var verdictSweeps = []struct{ seed, replication int }{{1, 1}, {1, 2}, {42, 1}, {42, 2}}

// TestVerdictGolden pins the verdict map: one line per certified cell
// naming its protocol, mix, servers, replication, seed, verdict and the
// number of transactions the certifier took in. A model that gains or
// loses a violation on any cell shows as a diff naming that cell. Run
// with -update to rewrite the file.
func TestVerdictGolden(t *testing.T) {
	var got strings.Builder
	got.WriteString("# protocol mix servers replication seed cert cert_txns\n")
	for _, sw := range verdictSweeps {
		line := fmt.Sprintf("-certify -protocols all -mixes readheavy,balanced -servers 2,4,8 -replication %d -clients 8 -txns 600 -seed %d -workers 2",
			sw.replication, sw.seed)
		rows, err := buildGrid(sweepOf(t, line))
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		for _, r := range rows {
			fmt.Fprintf(&got, "%s %s %d %d %d %s %d\n",
				r.Protocol, r.MixName, r.Servers, r.Replication, sw.seed, r.Cert, r.CertTxns)
		}
	}
	path := filepath.Join("testdata", "verdicts.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "verdict map (run 1: golden, run 2: now)", string(want), got.String())
}

// TestVerdictMapVictims is the theorem read off the verdict golden, with
// no re-run: only the three victims of the impossibility (eigerps,
// naivefast, twopcfast) and wren, whose gap README's verdict table
// names, violate anywhere, and every victim violates at least one cell
// of every (seed, replication) sweep.
func TestVerdictMapVictims(t *testing.T) {
	victims := []string{"eigerps", "naivefast", "twopcfast"}
	mayViolate := map[string]bool{"wren": true}
	for _, v := range victims {
		mayViolate[v] = true
	}
	data, err := os.ReadFile(filepath.Join("testdata", "verdicts.txt"))
	if err != nil {
		t.Fatal(err)
	}
	caught := map[string]bool{} // "protocol seed replication"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 7 {
			t.Fatalf("malformed verdict line %q", line)
		}
		proto, repl, seed, cert := f[0], f[3], f[4], f[5]
		switch cert {
		case "ok":
		case "violation":
			if !mayViolate[proto] {
				t.Errorf("unexpected violation: %s", line)
			}
			caught[proto+" "+seed+" "+repl] = true
		default:
			t.Fatalf("unknown verdict in %q", line)
		}
	}
	for _, sw := range verdictSweeps {
		for _, v := range victims {
			if !caught[fmt.Sprintf("%s %d %d", v, sw.seed, sw.replication)] {
				t.Errorf("victim never caught: %s at seed %d, replication %d", v, sw.seed, sw.replication)
			}
		}
	}
}
