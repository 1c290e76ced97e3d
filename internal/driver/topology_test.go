package driver

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/workload"
)

// TestTopologyStripingKeepsShardsSingleSite: under a declared 2-site
// topology every shard must stay single-site — the lookahead engine's
// shard-pair bounds are the minimum link floor across the pair, so one
// stray cross-site client would collapse a cross-site shard pair's
// bound from CrossLo back to IntraLo and erase the separation.
func TestTopologyStripingKeepsShardsSingleSite(t *testing.T) {
	topo, err := protocol.TopologyByName("2site")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Clients: 9, Txns: 60, Mix: workload.ReadHeavy(), Seed: 3,
		Servers: 4, Workers: 1, Topology: topo,
	}
	cfg.defaults()
	d, err := deploy(cops.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunOn(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Sharding; st == nil || st.Shards != 4 {
		t.Fatalf("sharding stats = %+v, want 4 shards", st)
	}
	// The run steps on the deployment's partition. Servers anchor their
	// shards; derive each shard's site from them.
	shardOf, _ := d.Partition()
	shardSite := map[int]int{}
	for _, pid := range d.Kernel.Processes() {
		if pid[0] == 's' {
			shardSite[shardOf(pid)] = topo.SiteOf(pid)
		}
	}
	if len(shardSite) != 4 {
		t.Fatalf("server shards = %d, want one per server", len(shardSite))
	}
	for _, pid := range d.Kernel.Processes() {
		if got, want := topo.SiteOf(pid), shardSite[shardOf(pid)]; got != want {
			t.Fatalf("%s (site %d) landed on shard %d (site %d)", pid, got, shardOf(pid), want)
		}
	}
}

// TestTopologyLookaheadRoundsPinned pins the per-link floors reaching the
// engine: on a 2-site cell — intra-site floors 20× tighter than
// cross-site — cross-site shard pairs carry the wide bound, so the cell
// drains in far fewer rounds than one per global (intra-site) floor
// window. The round count is pinned so a regression in the bound
// computation fails here.
func TestTopologyLookaheadRoundsPinned(t *testing.T) {
	topo, err := protocol.TopologyByName("2site")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Clients: 8, Txns: 120, Mix: workload.ReadHeavy(), Seed: 42,
		Servers: 4, Workers: 1, Topology: topo,
	}
	rep, err := Run(cops.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed != cfg.Txns {
		t.Fatalf("committed %d, want %d", rep.Committed, cfg.Txns)
	}
	if sh := rep.Sharding; sh.Rounds != 183 || sh.NullAdvances != 330 {
		t.Fatalf("rounds/null advances = %d/%d, want 183/330 — the per-link floors "+
			"are not reaching the engine as they did", sh.Rounds, sh.NullAdvances)
	}
}
