package core

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/workload"
)

// TestStalenessResolvesStabilizationLag: with one client no concurrent
// writer overwrites a probed value, so every stale probe hit is visibility
// lag. cure's cross-server writes become visible only once stabilization
// traffic has crossed between the shards — a lag the probes must see —
// while cops' writes are visible the moment they commit. The cell is E7's
// freshness line; a read-heavy mix commits too few writes to probe.
func TestStalenessResolvesStabilizationLag(t *testing.T) {
	for _, name := range []string{"cure", "cops"} {
		rep, err := driver.Run(ByName(name), driver.Config{
			Clients: 1, Txns: 2000, Mix: workload.Balanced(), Seed: 42,
			Servers: 2, ProbeStaleness: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := *rep.Staleness
		if st.Probes == 0 || st.Incomplete != 0 || (st.Stale > 0) != (name == "cure") {
			t.Errorf("%s, one client: %d of %d probes stale, %d incomplete", name, st.Stale, st.Probes, st.Incomplete)
		}
	}
}
