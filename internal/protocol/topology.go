package protocol

import (
	"fmt"

	"repro/internal/sim"
)

// Topology declares a geo-asymmetric deployment shape: every process is
// assigned to a site (a pure function of its ID), links between
// same-site processes draw their latency from the intra-site
// distribution, and links crossing sites from the cross-site one. The
// distributions come with declared floors — IntraLo becomes the kernel's
// global latency floor and CrossLo the per-directed-link floor of every
// cross-site link — which is exactly what the per-link conservative
// lookahead engine (sim.NewLookaheadRunner) feeds on: a shard whose
// peers are all across a site boundary can advance CrossLo/IntraLo times
// further per promise than under a uniform floor. A Topology is a pure
// function of the deployment config — no randomness, no worker-count
// dependence — so the byte-identity contract of sharded runs is
// preserved.
type Topology struct {
	// Name labels the topology in reports and grids ("2site", "3site").
	Name string
	// Sites is the number of sites; processes are assigned by their
	// trailing ID digits modulo Sites (so servers s0/s2 and clients
	// c0/c2 share site 0 of a 2-site topology, s1/c1/... site 1).
	Sites int
	// IntraLo/IntraHi bound the uniform intra-site latency
	// distribution; IntraLo doubles as the declared global floor.
	IntraLo, IntraHi sim.Time
	// CrossLo/CrossHi bound the uniform cross-site latency
	// distribution; CrossLo doubles as the declared floor of every
	// cross-site directed link.
	CrossLo, CrossHi sim.Time
}

// Topologies returns the named topology catalogue: uniform (nil — the
// default single-floor deployment) plus the geo-asymmetric shapes. The
// asymmetric ones put intra-site floors 20× tighter than cross-site
// (100µs vs 2ms), the regime where the paper's cross-site round-trip
// lower bounds dominate protocol latency.
func Topologies() []string { return []string{"uniform", "2site", "3site"} }

// TopologyByName resolves a named topology; "uniform" and "" resolve to
// nil (the default symmetric deployment).
func TopologyByName(name string) (*Topology, error) {
	switch name {
	case "", "uniform":
		return nil, nil
	case "2site":
		return &Topology{Name: "2site", Sites: 2,
			IntraLo: 100, IntraHi: 300, CrossLo: 2000, CrossHi: 4000}, nil
	case "3site":
		return &Topology{Name: "3site", Sites: 3,
			IntraLo: 100, IntraHi: 300, CrossLo: 2000, CrossHi: 4000}, nil
	default:
		return nil, fmt.Errorf("unknown topology %q (have %v)", name, Topologies())
	}
}

// SiteOf assigns a process to a site: the trailing decimal digits of the
// ID modulo Sites (s0→0, s1→1, c10→10%Sites, cin3→3%Sites...). IDs
// without trailing digits land on site 0. The assignment is pure — the
// same ID is always on the same site.
func (t *Topology) SiteOf(pid sim.ProcessID) int {
	if t == nil || t.Sites <= 1 {
		return 0
	}
	n, ok := 0, false
	pow := 1
	for i := len(pid) - 1; i >= 0; i-- {
		d := pid[i]
		if d < '0' || d > '9' {
			break
		}
		n += int(d-'0') * pow
		pow *= 10
		ok = true
		if pow > 1_000_000 { // enough digits; avoid overflow on absurd IDs
			break
		}
	}
	if !ok {
		return 0
	}
	return n % t.Sites
}

// Latency builds the asymmetric latency model: uniform [IntraLo,
// IntraHi] when both endpoints share a site, uniform [CrossLo, CrossHi]
// otherwise. Sampling order on the kernel RNG is identical to any other
// LatencyModel, so runs stay deterministic per seed.
func (t *Topology) Latency() sim.LatencyModel {
	intra := sim.UniformLatency(t.IntraLo, t.IntraHi)
	cross := sim.UniformLatency(t.CrossLo, t.CrossHi)
	return func(l sim.Link, rng *sim.RNG) sim.Time {
		if t.SiteOf(l.From) == t.SiteOf(l.To) {
			return intra(l, rng)
		}
		return cross(l, rng)
	}
}

// DeclareFloors declares the topology's latency lower bounds on the
// kernel: IntraLo as the global floor and CrossLo on every cross-site
// directed link between the currently registered processes. Deploy calls
// it after registering the full process set.
func (t *Topology) DeclareFloors(k *sim.Kernel) {
	k.SetLatencyFloor(t.IntraLo)
	procs := k.Processes()
	for _, from := range procs {
		for _, to := range procs {
			if from == to || t.SiteOf(from) == t.SiteOf(to) {
				continue
			}
			k.SetLinkLatencyFloor(sim.Link{From: from, To: to}, t.CrossLo)
		}
	}
}
