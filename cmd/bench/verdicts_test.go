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
