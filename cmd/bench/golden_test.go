package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestWideKeyspaceGolden pins the bytes of one small wide-keyspace grid
// that crosses every version-store path: prepare/commit by writer
// (spanner, wren, eiger, ramp, twopcfast), restamped vector chains (cure),
// visible stamped installs (gentlerain, contrarian), and — under faults
// with staleness probes — store snapshots and peer catch-up. A store or
// set-up change that moves any of them is a schedule change, not an
// optimisation.
func TestWideKeyspaceGolden(t *testing.T) {
	const cell = " -mixes balanced -objects 64 -servers 4 -clients 16 -txns 1500 -seed 3"
	for _, tc := range []struct{ line, sum string }{
		{"-protocols spanner,cure,wren,eiger,ramp,twopcfast,gentlerain,contrarian" + cell,
			"5f09427736e17688dbed210a170677f2de71cc1603ccbdf139673cb2359bcc2e"},
		{"-nemesis crash+partition -stale -protocols cops,spanner" + cell,
			"f79846e30000226c97c6afa5072d3283cd8580ef96b2b513e0b5f2ddedff1544"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(tc.line), &stdout, &stderr); err != nil {
			t.Fatalf("%q: %v", tc.line, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(stdout.Bytes())); got != tc.sum {
			t.Errorf("%q: sha256 %s, pinned %s", tc.line, got, tc.sum)
		}
	}
}
