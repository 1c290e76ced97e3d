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
			"c26dc58895f9 09b05e337a7d d2b27bc61275 a7b9eb173117 1cbae80e8dfe 728c28056831 f9f8a8ff4d2b 323a97ee76ec 957bf8e4f0b1 2d3250cb7f76 e35addf7d745 3bf2f99d3ac9",
			"c0da332321ab d33e4a67e4e2 b373999fb36b c189098adfe5 2b12e8923f2d 7c8ee4b978e8 a2348ee0bbb9 5a10d694a817 80dc682c163d a0042ad2adf0 0120e3fd103b c3146bb174f2",
		}},
		{"crash-lose", Nemesis{Crashes: 2, Lose: true}, [2]string{
			"e6e9ffd9fda8 37e4a463ad75 683eb44bb6b9 d59030c94ec2 489b91c4a572 7aaacec48be4 9eaae9ca8a45 4f68084ac82f a4592b9ba504 f0433d99fb7b 152ccbcc7bbd 4be480581d66",
			"548b7ad2307f 7444ba006721 ae3a86bdbb83 694553221970 8555d8491a11 3912fd3f5a82 3173312b30fc 41ba57a7f18f f9e4f6f9e10b 806571fc5622 784be6ea9be8 4c48511dd86b",
		}},
		{"partition", Nemesis{Partitions: 2}, [2]string{
			"b1945a63ae24 89629301a65b e157447c3f06 a657420567d2 479a35a1e505 dfde24601553 3eb213b460a5 6e031cad5ff3 942b86e34390 01f2fa144516 9bbff75af962 b2ec18d7897e",
			"a8908254ff09 6278a5738a0e b5940a902d1d 72ba7fb8f6da eb4eaf0c7846 af06ed151f77 4b04fc4d153b 61571413fe06 1a6cc1f82f7e dd0bd3377c07 c4d44199ff5d 03b0f5ede583",
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
