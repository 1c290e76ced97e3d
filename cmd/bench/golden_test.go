package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

type goldenRow struct{ line, sum string }

// checkGolden hashes each command's grid minus its *_wall_ms lines (host
// time, present under -certify only).
func checkGolden(t *testing.T, rows []goldenRow) {
	t.Helper()
	for _, tc := range rows {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(tc.line), &stdout, &stderr); err != nil {
			t.Fatalf("%q: %v", tc.line, err)
		}
		h := sha256.New()
		for _, line := range strings.SplitAfter(stdout.String(), "\n") {
			if !strings.Contains(line, "_wall_ms\"") {
				h.Write([]byte(line))
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.sum {
			t.Errorf("%q: sha256 %s, pinned %s", tc.line, got, tc.sum)
		}
	}
}

// TestWideKeyspaceGolden pins the bytes of one small wide-keyspace grid
// that crosses every version-store path: prepare/commit by writer
// (spanner, wren, eiger, ramp, twopcfast), restamped vector chains (cure),
// visible stamped installs (gentlerain, contrarian), and — under faults
// with staleness probes — store snapshots and peer catch-up. A store or
// set-up change that moves any of them is a schedule change, not an
// optimisation.
func TestWideKeyspaceGolden(t *testing.T) {
	const cell = " -mixes balanced -objects 64 -servers 4 -clients 16 -txns 1500 -seed 3"
	checkGolden(t, []goldenRow{
		{"-protocols spanner,cure,wren,eiger,ramp,twopcfast,gentlerain,contrarian" + cell,
			"5f09427736e17688dbed210a170677f2de71cc1603ccbdf139673cb2359bcc2e"},
		{"-nemesis crash+partition -stale -protocols cops,spanner" + cell,
			"f79846e30000226c97c6afa5072d3283cd8580ef96b2b513e0b5f2ddedff1544"},
	})
}

// TestFanOutGolden pins what the rows above leave out: the other six
// models on both mixes, every multi-write model on a 16-server replicated
// cell (s10..s15 sort before s2, so a request fanned out in any order but
// the placement's moves message IDs and latency draws), a 2-site grid and
// an open-loop curve. Send order is part of the schedule: a change to who
// is sent what, or in which order, shows here as a different digest.
func TestFanOutGolden(t *testing.T) {
	checkGolden(t, []goldenRow{
		{"-protocols cops,copssnow,orbe,fatcops,naivefast,eigerps -mixes readheavy,balanced -servers 4 -clients 16 -txns 600 -seed 3",
			"75533c0187ee4e37f341def3f178f2cc64463da0ca3f01031cdbd53f832e4d60"},
		{"-protocols cure,spanner,eiger,ramp,wren,twopcfast,eigerps,fatcops,naivefast -mixes balanced -servers 16 -replication 2 -clients 16 -txns 400 -seed 3",
			"44ce61be698b142e9454f940b1e174a2372ee9b175a6bb423dcaf15080e6b771"},
		{"-topology 2site -protocols cops,cure,ramp -mixes balanced -servers 4 -clients 8 -txns 400 -seed 3",
			"88c713acac5e890949bf67d6afd705b244b725e5052d9deae89364284d7528fd"},
		{"-curve -protocols cops,eiger -mixes balanced -servers 4 -curveclients 8 -txns 300 -fractions 0.5,1.1 -seed 3",
			"594c65e17c325135d787bd79b54681c9f973225e6d561eff35609cf941829208"},
	})
}

// TestDrainOrderGolden pins two grids whose columns depend on the order
// in which the driver hands finished transactions on: a certified
// pipelined grid (cert_reason, cert_txns and first_violation_txn follow
// the session's feed order; naivefast must violate) and a probed, faulted
// one on the default keyspace (nem_recovery_* close on the first
// qualifying commit of the drain, stale_* on the batches it takes).
func TestDrainOrderGolden(t *testing.T) {
	const cell = " -mixes balanced -servers 4 -clients 16 -txns 400 -seed 3"
	checkGolden(t, []goldenRow{
		{"-certify -pipeline 4 -protocols cops,spanner,naivefast" + cell,
			"db118ddd690c7fd64d53ae2f5476b631d3545fae41101b3be88b1213225c3b92"},
		{"-stale -nemesis crash+partition -protocols cops,cure,spanner" + cell,
			"a758fd25ffa97a6abcdcf6e4d2bc70116e1500473b390e6674873c6fee7a6269"},
	})
}

// TestReconfigGolden pins replacement and restore on the three models
// whose reads serve per-version metadata (cops' dependency lists,
// fatcops' sibling and dependency values, ramp's write sets), replicated
// so that a replacement catches up from a live peer: the nem_sync_*
// columns count what it transferred, and every later read of a
// transferred version shows whether its metadata came along.
func TestReconfigGolden(t *testing.T) {
	const cell = " -protocols cops,fatcops,ramp -mixes readheavy,balanced -servers 4 -replication 2 -clients 8 -txns 600"
	checkGolden(t, []goldenRow{
		{"-nemesis replace" + cell,
			"5adfff4ff7a4ebf83b33455ba58a913758d1ac2e07071f0c8e56c1fc68beb660"},
		{"-nemesis replace-lose" + cell,
			"b0e89c37f9fa7f57c9551a4f3d75c39a15e0b3908064a92ac0b6b79fbfd135fd"},
		{"-nemesis restore" + cell,
			"9b7a7ecb9302bbe6f3b27aecfd598ad3497ebc33db05bdca72b3926c68b19987"},
	})
}
