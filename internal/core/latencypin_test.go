package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/workload"
)

// TestLatencyTablePins pins the E7 table (cmd/latency at its default 60
// transactions, seed 42) outside the staleness column: every column the
// closed-loop load phase produces — ROT and write latency summaries, read
// rounds, throughput — plus the incomplete count, for all 14 protocols
// under both mixes. The staleness phase runs on its own deployment; a
// rework of it must leave every digest here alone.
func TestLatencyTablePins(t *testing.T) {
	want := map[string][2]string{ // protocol -> readheavy, balanced
		"contrarian": {"eee0e7727645", "50ff23369bb4"},
		"cops":       {"9a56b2e00d6d", "bf5e04211342"},
		"copssnow":   {"2009b2f18afc", "642621488d3d"},
		"cure":       {"fe58e29c96d5", "4cec64ab4c5d"},
		"eiger":      {"eab39dfb6923", "b10795e41bf1"},
		"eigerps":    {"b0a843366285", "1a1d7c8c6f2f"},
		"fatcops":    {"2e9dd86e0c6a", "5481dfaddfb2"},
		"gentlerain": {"101b45c52867", "d6216a76d59a"},
		"naivefast":  {"2e9dd86e0c6a", "5481dfaddfb2"},
		"orbe":       {"c7e7b68ced2f", "ccfbb781f1b3"},
		"ramp":       {"f3906a24359d", "47599b3e03a4"},
		"spanner":    {"c29e91c5f6af", "6f3243b0bbfc"},
		"twopcfast":  {"f3906a24359d", "47599b3e03a4"},
		"wren":       {"d4f5dc7327bb", "5878fd9200ff"},
	}
	got := map[string][2]string{}
	for mi, mix := range []workload.Mix{workload.ReadHeavy(), workload.Balanced()} {
		reps, err := LatencySweep(mix, 60, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reps {
			h := sha256.New()
			fmt.Fprintf(h, "%+v\n%+v\n%v %v %d\n", r.ROT, r.Write, r.ROTRounds, r.Throughput, r.Incomplete)
			g := got[r.Protocol]
			g[mi] = fmt.Sprintf("%x", h.Sum(nil))[:12]
			got[r.Protocol] = g
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d protocols measured, %d pinned", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digests %q, pinned %q", name, got[name], w)
		}
	}
}
