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
// instants per line. The report is hashed with its keys sorted and
// without the Sharding keys that echo the configuration or break the run
// down per shard (Workers, ActiveShardRounds, PerShard, Partition): what
// is pinned is the run, not how its counters are laid out.
func openDigest(t *testing.T, rep *Report) string {
	t.Helper()
	rep.CertWall, rep.CertBatchWall = 0, 0
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var top, sharding map[string]json.RawMessage
	if err := json.Unmarshal(js, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["Sharding"], &sharding); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"Workers", "ActiveShardRounds", "PerShard", "Partition"} {
		delete(sharding, k)
	}
	if top["Sharding"], err = json.Marshal(sharding); err != nil {
		t.Fatal(err)
	}
	if js, err = json.Marshal(top); err != nil {
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
			"7cabb785dadf d86154f524de e6634a9a335b c41786aff70f 756c3454c4e9 871f42a532d3 a1957a06a0ae 2eab4fcf793f e1de75c4f20f c0fd5a365699 30bd01df4851 98580d37d2c9",
			"3ebb11405007 088468c00f37 ea1e5d88fe9f da49d712b6c8 03a544b19d0b d440ad778914 c481b382f75f fb4f25e165dc c292d9980286 14be93c342e0 aba7dc10705e d1362ed97b5c",
		}},
		{"crash-lose", Nemesis{Crashes: 2, Lose: true}, [2]string{
			"e9e5accd6f77 b40639c00ae2 4f2477a957c6 b3bbadb8043a 8a6d1c965dce 2cafd73bc0ba b6e583817ea8 032adb7a2921 68a85e1e31e7 bb7b4a2cb162 bb14fcbe945d ef4aa406ace8",
			"6abc61b38f85 ab46ddeb8d99 4c9bcac5e474 f168f2f9965b 76b051405962 b5cd82bfa5dc fb68857ed8ea d9dcd2d56a7f 6580a7a256ff 67d257396b67 eb9d0a8435e4 3e05c2dff09f",
		}},
		{"partition", Nemesis{Partitions: 2}, [2]string{
			"49531b1d9466 fa451fb8bd9b 7a83fd73fbf5 239219617864 c35e7df49e3d 5e3d165f1439 88c27d46de26 4b3bec5ec9b3 67650c47e9ea ff060dc05253 793ff288a2cd ae69c6d15f14",
			"40aae90f187b cb8d9009d8ae 4e28363018ac 6713eaf93bb3 8f34372fe8d0 337dd572dce5 abc8ed9847ed c871b6881488 16303603662e abb64f4d98b2 355ef8c9089e 92b30268bc06",
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
