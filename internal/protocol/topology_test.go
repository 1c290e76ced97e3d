package protocol_test

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/naivefast"
	"repro/internal/sim"
)

func TestTopologyByName(t *testing.T) {
	for _, name := range []string{"", "uniform"} {
		topo, err := protocol.TopologyByName(name)
		if err != nil || topo != nil {
			t.Fatalf("protocol.TopologyByName(%q) = %v, %v; want nil, nil", name, topo, err)
		}
	}
	for name, sites := range map[string]int{"2site": 2, "3site": 3} {
		topo, err := protocol.TopologyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if topo.Name != name || topo.Sites != sites {
			t.Fatalf("protocol.TopologyByName(%q) = %+v", name, topo)
		}
		if topo.CrossLo <= topo.IntraHi {
			t.Fatalf("%s cross-site floor %d does not clear the intra-site "+
				"ceiling %d — the lookahead separation regime is gone",
				name, topo.CrossLo, topo.IntraHi)
		}
	}
	if _, err := protocol.TopologyByName("moonbase"); err == nil {
		t.Fatal("unknown topology resolved")
	}
}

func TestSiteOfIsPureAndDigitBased(t *testing.T) {
	topo, _ := protocol.TopologyByName("2site")
	for pid, want := range map[sim.ProcessID]int{
		"s0": 0, "s1": 1, "s2": 0, "s3": 1,
		"c0": 0, "c1": 1, "c10": 0, "c13": 1,
		"cin0": 0, "cin3": 1, "r2": 0,
		"noDigits": 0,
	} {
		if got := topo.SiteOf(pid); got != want {
			t.Fatalf("SiteOf(%s) = %d, want %d", pid, got, want)
		}
	}
	three, _ := protocol.TopologyByName("3site")
	if three.SiteOf("s5") != 2 || three.SiteOf("c10") != 1 {
		t.Fatal("3site digit assignment wrong")
	}
}

// TestDeployDeclaresTopologyFloorMatrix: deploying under the 2-site
// topology must yield exactly the per-directed-link floor matrix the
// lookahead engine feeds on — CrossLo on every cross-site link in both
// directions (servers, clients, readers and init clients alike), and
// the global IntraLo floor on every same-site link.
func TestDeployDeclaresTopologyFloorMatrix(t *testing.T) {
	topo, err := protocol.TopologyByName("2site")
	if err != nil {
		t.Fatal(err)
	}
	d := protocol.Deploy(naivefast.New(), protocol.Config{
		Servers: 4, Clients: 4, Seed: 1, Topology: topo,
	})
	k := d.Kernel
	if d.Topo != topo {
		t.Fatal("deployment did not record the topology")
	}
	procs := k.Processes()
	cross, intra := 0, 0
	for _, from := range procs {
		for _, to := range procs {
			if from == to {
				continue
			}
			got := k.LinkLatencyFloor(sim.Link{From: from, To: to})
			want := topo.IntraLo
			if topo.SiteOf(from) != topo.SiteOf(to) {
				want = topo.CrossLo
				cross++
			} else {
				intra++
			}
			if got != want {
				t.Fatalf("floor(%s→%s) = %d, want %d", from, to, got, want)
			}
		}
	}
	if cross == 0 || intra == 0 {
		t.Fatalf("degenerate matrix: %d cross, %d intra links", cross, intra)
	}
}
