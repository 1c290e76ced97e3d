package core

import (
	"testing"

	"repro/internal/workload"
)

// TestStalenessResolvesStabilizationLag: the staleness phase steps on the
// load engine's per-server partition, so cure's cross-server writes
// become visible only once stabilization traffic has crossed between
// shards — a lag the phase must see — while cops' writes are visible the
// moment they commit. On a single shard the unbounded round carries a
// whole stabilization wave, and cure reads 0 as well.
func TestStalenessResolvesStabilizationLag(t *testing.T) {
	for _, mix := range []workload.Mix{workload.ReadHeavy(), workload.Balanced()} {
		for _, name := range []string{"cure", "cops"} {
			rep, err := MeasureLatency(ByName(name), mix, 20, 42)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Incomplete != 0 {
				t.Fatalf("%s: %d incomplete", name, rep.Incomplete)
			}
			if lagged := rep.Staleness.Mean > 0; lagged != (name == "cure") {
				t.Errorf("%s (read fraction %.2f): staleness mean %.1f", name, mix.ReadFraction, rep.Staleness.Mean)
			}
		}
	}
}
