package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/spanner"
	"repro/internal/workload"
)

// openDigest is a short sha256 over the report JSON (wall-clock zeroed)
// and the recorded history, one record with its invoke and completion
// instants per line.
func openDigest(t *testing.T, rep *Report) string {
	t.Helper()
	rep.CertWall = 0
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(js)
	for _, rec := range rep.History.Records() {
		fmt.Fprintln(h, rec, rec.Invoked, rec.Completed)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

// TestOpenLoopNemesisPins pins open-loop runs through fault schedules:
// the one path where the engine is re-entered once per injection while
// crashes and cuts hold in-flight messages back and restarts and heals
// release them. Persistent crash, lossy crash and partition, cops and
// spanner, 12 seeds each; a lossy crash may strand transactions, which is
// part of what is pinned.
func TestOpenLoopNemesisPins(t *testing.T) {
	protos := []struct {
		name string
		mk   func() protocol.Protocol
	}{
		{"cops", func() protocol.Protocol { return cops.New() }},
		{"spanner", func() protocol.Protocol { return spanner.New() }},
	}
	cells := []struct {
		name string
		nem  Nemesis
		want [2]string // by protocol, 12 seed digests each
	}{
		{"crash", Nemesis{Crashes: 2}, [2]string{
			"426d7d4a7bbb 6d5f18f5707c 9a7413c0fcd4 b6ef47944835 6362b132bf73 1a711cc78854 961c863c2ffe eed44d1c6396 0fada98046af 2f562e3fea69 33640cd2ffbe bf9731f9a08a",
			"4d391a719f93 a09999d377ef f2bdb01d1d95 c43f56c145dc 6845fe7a2c25 ebb8910c013b 12b49bbee3c4 a232d2b8f3a8 f6a62d0c2dc2 435c38aae088 1ca05ef94e68 d793ae51f18b",
		}},
		{"crash-lose", Nemesis{Crashes: 2, Lose: true}, [2]string{
			"0843e7ed3748 6f5d79a50804 48d74ce28315 5763ebaff9d1 ad60c131231f 2ad9343b33ad 057aae119284 0909b58fbc65 3c10f5a16d7a c74d7597384d 4cdfb5cf6f5f 463a0bec3752",
			"4b734689fedf 43cdc5fa85e3 35c8a752ae75 051463331296 b04155d0090b f9da9f517f90 b4b44bc44dd2 313e0f11a1dd e38d408497f3 8c780a904c0d 9691f06ab28a b84e65adba56",
		}},
		{"partition", Nemesis{Partitions: 2}, [2]string{
			"7dbce6908026 c76fadbfc743 81aa5e2cac7d b41cf7caaf89 2f6eb63cea29 4b4bd4d3bd3c 6e4d1e95536a 9175a21b70c9 646ef113223f db4f6b713a65 ed4c35784bb5 f10dfa565b4a",
			"5672cb82826b c0ed6a6faa6e 6bc34eb7befd 078bf9db2165 29b9c578512c c573f531d6c0 d25c26708701 50df89ac03fd 951368880fdb e8141a2af3c0 4e878372baac 8b907fb22eff",
		}},
	}
	for _, c := range cells {
		for pi, p := range protos {
			var got []string
			for seed := int64(1); seed <= 12; seed++ {
				nem := c.nem
				rep, err := Run(p.mk(), Config{
					Clients: 8, Txns: 160, Mix: workload.Balanced(), Seed: seed,
					Servers: 4, ObjectsPerServer: 2, Rate: 3000,
					Nemesis: &nem, RecordHistory: true,
				})
				if err != nil {
					t.Fatalf("%s %s seed %d: %v", c.name, p.name, seed, err)
				}
				if rep.Nemesis.Applied == 0 {
					t.Fatalf("%s %s seed %d: no fault applied", c.name, p.name, seed)
				}
				got = append(got, openDigest(t, rep))
			}
			if g := strings.Join(got, " "); g != c.want[pi] {
				t.Errorf("%s %s: seed digests\n got  %s\n want %s", c.name, p.name, g, c.want[pi])
			}
		}
	}
}
