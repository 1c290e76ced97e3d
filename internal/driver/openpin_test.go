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

// openDigest is a short sha256 over the report JSON and the recorded
// history, one record with its invoke and completion
// instants per line. The report is hashed with its keys sorted and
// without the keys that merely restate others (AbortRate; the nemesis
// report's Restarts and Heals) or echo the configuration or break the run
// down per shard (Sharding's Workers, ActiveShardRounds, PerShard,
// Partition): what is pinned is the run, not how its counters are laid
// out.
func openDigest(t *testing.T, rep *Report) string {
	t.Helper()
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
			"7f207931e2d2 5d587bfbfe26 8959a9f1048c e3895aa04851 90b4efbbaebf ab7398d372d0 4ffb70773d2a b12285d60111 20bd98bf1640 d17d03e3b760 b708719aea9b 8ab6f18905fc",
			"911b6e3b64d8 c91190927e55 4d66391ad58b 79c423a5a3e7 ca6de15406bd 67562de85ab3 71b2678c31c1 9e9b4176c67c c25b50c33404 7e010ae7372c f7cf0d731011 235ac28c314d",
			"d116e5ce7c22 b67159dcf8a2 df85c2d9b45f 69e7250f77a1 6abac3eb151d 48eec3d56e99 0c795003e332 6275102163df a086aef03aae 617753e1d806 f7b10633c33c 4c5ce63b163f",
		}},
		{"crash-lose", Nemesis{Crashes: 2, Lose: true}, [3]string{
			"da7cdb999e10 abebf1bb7310 772c7dbd2287 b4a916a7c859 732e4daa5058 6b9cd41da1f2 b3d601edc8ec fec294a70fa7 0e7ecdfa6c4c 0540ee16b0da 2a0eb841fdbb 7712f73c9592",
			"badca8a2debb 74d756a26672 79d9c22f00bb 4c8912cfb8e6 273379813a8d 4c5ff3bb6e08 e2b79676552c 5726a97e331f 07915fce9aaf ba0ef5a20743 6cc8778b1d8d a8e868449293",
			"a236d37a7ac5 92ed4a424491 70a63ee9f2a4 46b04414fa78 5b8a10e212c0 6fb68f74d6d6 9bd95ba9a1da b6c161bec870 47b91d9b4a4c 5ca9dd7a59e4 5745b52a3f8d d2658cbe9048",
		}},
		{"partition", Nemesis{Partitions: 2}, [3]string{
			"928926b1e2fc fb6e3c43d905 c166f6ac23e6 4d0a7f5c274a 4b0e9a98a551 f6d8bfcf36ba 6a7b4afd20a9 6fadf73b499b bd85f0a6e0b6 3a1c7f19745e 62af1f58d10b 2c4e81a4b6e7",
			"b035bd60fdfa a6e4df61d7c1 4e2d44f39fdd 6b1d761b609b cdc58c8f3ca1 37b8df1dfd71 8fb951a21e85 d166e27efef1 33fa0cff2c9a b254866a6102 89b127221d1e 61cdeec6e964",
			"41508ef54fb1 8ccbd5a2feff 155f75e38f04 af9f2a70c9fa 93966401b6ce 65ec2675c7a3 4166af507c20 e84ac5c0a3bf d4e40489a462 e9d7e629dbf5 1aba9b03adcb 55d79a326872",
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
