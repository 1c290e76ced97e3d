package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/gentlerain"
	"repro/internal/protocols/spanner"
	"repro/internal/workload"
)

// openDigest is a short sha256 over the report JSON (wall-clock zeroed)
// and the recorded history, one record with its invoke and completion
// instants per line. The report is hashed with its keys sorted and
// without the keys that merely restate others (AbortRate; the nemesis
// report's Restarts and Heals) or echo the configuration or break the run
// down per shard (Sharding's Workers, ActiveShardRounds, PerShard,
// Partition): what is pinned is the run, not how its counters are laid
// out.
func openDigest(t *testing.T, rep *Report) string {
	t.Helper()
	rep.CertWall, rep.CertBatchWall = 0, 0
	top := withoutKeys(t, rep, "AbortRate")
	var err error
	if top["Sharding"], err = json.Marshal(withoutKeys(t, rep.Sharding, "Workers", "ActiveShardRounds", "PerShard", "Partition")); err != nil {
		t.Fatal(err)
	}
	if top["Nemesis"], err = json.Marshal(withoutKeys(t, rep.Nemesis, unpinnedNemesisKeys...)); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(top)
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

// unpinnedNemesisKeys are the NemesisReport keys no digest hashes: the
// restart and heal counts, which the applied fault schedule already fixes.
var unpinnedNemesisKeys = []string{"Restarts", "Heals"}

// withoutKeys returns v's JSON object with keys deleted.
func withoutKeys(t *testing.T, v any, keys ...string) map[string]json.RawMessage {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(js, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		delete(m, k)
	}
	return m
}

// TestOpenLoopNemesisPins pins open-loop runs through fault schedules:
// the one path where the engine is re-entered once per injection while
// crashes and cuts hold in-flight messages back and restarts and heals
// release them. Persistent crash, lossy crash and partition, 12 seeds
// each, on cops and on the two models that tell the engine when they can
// step again (sim.Waker): spanner and gentlerain. A lossy crash may
// strand transactions, which is part of what is pinned.
func TestOpenLoopNemesisPins(t *testing.T) {
	protos := []struct {
		name string
		mk   func() protocol.Protocol
	}{
		{"cops", func() protocol.Protocol { return cops.New() }},
		{"spanner", func() protocol.Protocol { return spanner.New() }},
		{"gentlerain", func() protocol.Protocol { return gentlerain.New() }},
	}
	cells := []struct {
		name string
		nem  Nemesis
		want [3]string // by protocol, 12 seed digests each
	}{
		{"crash", Nemesis{Crashes: 2}, [3]string{
			"951404e812fc 4f6ed117f0bd 81c718fd7013 43fb647b203c 6cbdcffbbaee d9456ab55cfa 2c5dc328c62e ffc3c526ef78 8fe0ad27b4cc fca474c51820 3fa9dae7189f 4b1523f99385",
			"4d656e4f53b0 80840e16619e 6d00d8e09ca9 dfe230e587ce c76c0c710aeb 57eaa6cbe1ce 046217116a64 68c2705e6ed3 1d740b5229a0 35ff2a1051d5 872757ac032c b9c879396239",
			"cbada36b0b53 0a8296b29478 ed23903f6c44 5685efaa9061 0b134c2748d4 c2cc92d26b35 5bd5b733a37a 291b74e299c9 9b0641fcf875 f9813633dd83 9395fc6fd757 407eef12ea16",
		}},
		{"crash-lose", Nemesis{Crashes: 2, Lose: true}, [3]string{
			"0bfc2bf8cfd9 05e281911280 909345caa669 7369209d4ad3 584534707f6f c32e04161eb1 69c180a02bc0 74c88d125b86 d9fe059f6abe 716a882e10ca 29a40b9d677c 4647738b68a3",
			"b93fa4abb192 0f840d096f63 14abcf7483f2 fc16fce86437 a1f891033a11 94443eba61b5 7cfe15c621f0 24064a515efd f9ff53f4c8b5 fd614cf1fe76 2e9c22adfcaa c38a1954ae2f",
			"df05cda914b1 c61ed9356073 62f9e759e9ae 1877bb3ac98c 4a1054938f52 ee05cb4844ae 2e4725d531d3 c612a081b07b 9597cda8990a 22b888177cf5 2261b6322078 88aaf218872c",
		}},
		{"partition", Nemesis{Partitions: 2}, [3]string{
			"669b729444ca e51897db125a 40ecc71eed46 f55632c894ff 0388a26bbf37 9262ba9a0b35 40233adfe3d6 47b9e01ffe43 4f5b11c3645c 844ff36a7008 7591e4b77c3a 74692bf225ab",
			"97e877d1ff26 c06f42fa4b17 b9df22ff3078 65330a7fc265 b6c278b4beef c32234453dc8 294bcde38013 ae3bf06f2924 52c4825f3ab3 290a9521db31 4bc34cb16245 1ff402e627e2",
			"36ae09a173ac cbd85c93abc0 95bf702ffa4b e6e55d8023ea 44d11ad556d5 7edc91da8088 afc2d1c87497 14a85c9d86f2 2183f1afe486 b613d9aa26b8 b75270ce4344 c37b3e5fe638",
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
