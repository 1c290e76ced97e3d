package driver

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/spanner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// clientCount is what one workload client did: its steps, the
// TakeFinished calls made on it and every result it handed out.
type clientCount struct {
	steps, takes int
	results      []*model.Result
}

// countingClient counts for the client it wraps and otherwise behaves as
// that client, WakeAt included.
type countingClient struct {
	protocol.Client
	n *clientCount
}

func (c *countingClient) Step(now sim.Time, inbox []*sim.Message) []sim.Outbound {
	c.n.steps++
	return c.Client.Step(now, inbox)
}

func (c *countingClient) TakeFinished(dst []*model.Result) []*model.Result {
	n := len(dst)
	dst = c.Client.TakeFinished(dst)
	c.n.takes++
	c.n.results = append(c.n.results, dst[n:]...)
	return dst
}

func (c *countingClient) WakeAt(now sim.Time) (sim.Time, bool) {
	if w, ok := c.Client.(sim.Waker); ok {
		return w.WakeAt(now)
	}
	return now, true
}

// Clone gives the copy a count of its own: staleness probes step clones.
func (c *countingClient) Clone() sim.Process {
	return &countingClient{c.Client.Clone().(protocol.Client), &clientCount{}}
}

// counting deploys p with every client counted, by process ID.
type counting struct {
	protocol.Protocol
	counts map[sim.ProcessID]*clientCount
}

func (p counting) NewClient(id sim.ProcessID, pl *protocol.Placement) protocol.Client {
	n := &clientCount{}
	p.counts[id] = n
	return &countingClient{p.Protocol.NewClient(id, pl), n}
}

// TestDrainOrderOracle checks the drain against an order computed from
// the clients alone, not from take or collect: the recorded history must
// be exactly the committed results the clients handed out, ordered by
// completion instant, then client index, then per-client sequence number.
// It also bounds the TakeFinished calls: one after the closed loop's
// initial fill, then at most one per step of the client, where taking
// from every client at every collect makes clients × collects calls.
func TestDrainOrderOracle(t *testing.T) {
	twoSite, err := protocol.TopologyByName("2site")
	if err != nil {
		t.Fatal(err)
	}
	faults := &Nemesis{Crashes: 1, Partitions: 1, Start: 20_000, Period: 120_000, Duration: 10_000}
	cells := []struct {
		name string
		set  func(*Config)
	}{
		{"closed-p1", func(*Config) {}},
		{"closed-p4", func(c *Config) { c.Pipeline = 4 }},
		{"2site-p4", func(c *Config) { c.Pipeline, c.Topology = 4, twoSite }},
		{"crash+partition", func(c *Config) { c.Nemesis = faults }},
		{"stale-p4", func(c *Config) { c.Pipeline, c.ProbeStaleness = 4, true }},
		{"open", func(c *Config) { c.Rate = 3000 }},
		{"open-stale", func(c *Config) { c.Rate, c.ProbeStaleness = 3000, true }},
	}
	protos := map[string]func() protocol.Protocol{
		"cops":    func() protocol.Protocol { return cops.New() },
		"spanner": func() protocol.Protocol { return spanner.New() },
	}
	for _, c := range cells {
		for name, mk := range protos {
			what := fmt.Sprintf("%s %s", c.name, name)
			cfg := Config{
				Clients: 8, Txns: 400, Mix: workload.Balanced(), Seed: 3,
				Servers: 4, RecordHistory: true,
			}
			c.set(&cfg)
			cfg.defaults()
			p := counting{mk(), map[sim.ProcessID]*clientCount{}}
			d, err := deploy(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunOn(d, cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if rep.Incomplete != 0 {
				t.Fatalf("%s: %d transactions incomplete", what, rep.Incomplete)
			}
			type handed struct {
				res    *model.Result
				client int
			}
			var committed []handed
			results, takes, steps := 0, 0, 0
			for i, pid := range d.Clients[:cfg.Clients] {
				n := p.counts[pid]
				if n.takes > n.steps+1 {
					t.Errorf("%s: client %s: %d TakeFinished calls over %d steps", what, pid, n.takes, n.steps)
				}
				takes, steps, results = takes+n.takes, steps+n.steps, results+len(n.results)
				for _, res := range n.results {
					if res.OK() {
						committed = append(committed, handed{res, i})
					}
				}
			}
			if results != rep.Issued {
				t.Fatalf("%s: clients handed out %d results for %d issued", what, results, rep.Issued)
			}
			slices.SortFunc(committed, func(a, b handed) int {
				return cmp.Or(cmp.Compare(a.res.Completed, b.res.Completed),
					cmp.Compare(a.client, b.client),
					cmp.Compare(a.res.Txn.ID.Seq, b.res.Txn.ID.Seq))
			})
			recs := rep.History.Records()
			if len(recs) != len(committed) || len(recs) != rep.Committed {
				t.Fatalf("%s: history has %d records, clients committed %d, report %d", what, len(recs), len(committed), rep.Committed)
			}
			for i, want := range committed {
				if recs[i].ID != want.res.Txn.ID || recs[i].Completed != want.res.Completed {
					t.Fatalf("%s: record %d is %s@%d, oracle order has %s@%d",
						what, i, recs[i].ID, recs[i].Completed, want.res.Txn.ID, want.res.Completed)
				}
			}
			t.Logf("%s: %d TakeFinished calls, %d client steps, %d rounds", what, takes, steps, rep.Sharding.Rounds)
		}
	}
}
