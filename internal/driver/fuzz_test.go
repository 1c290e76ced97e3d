package driver

import (
	"math"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/naivefast"
	"repro/internal/protocols/spanner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// configFrom decodes fuzz bytes into a small run spec (≤ 8 clients, ≤ 64
// transactions unless defaulted, ≤ 4 servers) that roams every other
// field, out-of-range values included: zero fields exercise the
// defaults, replication can be negative or exceed the servers, the read
// fraction can pass 1, the rate can be negative or absurd. Missing bytes
// read as zero.
func configFrom(data []byte) (protocol.Protocol, Config) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	bit := func() bool { return next()&1 == 1 }

	protos := []protocol.Protocol{cops.New(), cure.New(), spanner.New(), naivefast.New()}
	p := protos[next()%len(protos)]
	cfg := Config{
		Clients: next() % 9, Pipeline: next() % 4, Txns: next() % 65,
		Servers: next() % 5, ObjectsPerServer: next() % 4, Replication: next()%6 - 1,
		Seed: int64(next())<<8 | int64(next()),
		Mix: workload.Mix{
			ReadFraction: float64(next()) / 200, ReadWidth: next() % 5,
			WriteWidth: next() % 5, ZipfS: float64(next()) / 100,
		},
		Rate: []float64{0, 0, 0, 1, 700, 2e4, 1e9, -3, math.Inf(1), math.NaN()}[next()%10],
		// Bounded so a run that cannot finish ends as Incomplete quickly.
		MaxEvents:             20_000 + 1_000*next(),
		DeterministicArrivals: bit(), RecordHistory: bit(), Certify: bit(),
		ProbeStaleness: bit(), Rebalance: bit(), Workers: next() % 4,
	}
	cfg.Topology, _ = protocol.TopologyByName(protocol.Topologies()[next()%3])
	if bit() {
		cfg.Nemesis = &Nemesis{
			Crashes: next() % 3, Partitions: next() % 3, Replaces: next() % 2, Restores: next() % 2,
			Lose: bit(), ServersOnly: bit(),
			Start: sim.Time(next()) * 200, Period: sim.Time(next()) * 500, Duration: sim.Time(next()) * 100,
		}
	}
	return p, cfg
}

// FuzzConfig is refuse-don't-panic for the one run spec: any small Config
// either is refused with an error or runs to a report that accounts for
// every issued transaction; Run's own error carries the end-of-run
// message-conservation check. A hang shows as the fuzz engine's timeout.
func FuzzConfig(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 1, 40, 2, 2, 1, 0, 7, 190, 2, 2, 99})                                                              // plain closed loop
	f.Add([]byte{1, 8, 3, 64, 4, 3, 3, 1, 2, 100, 4, 1, 50, 4, 9, 1, 1, 1, 1, 1, 3, 1})                                   // cure, replicated, open loop, probes, rebalance, 2site
	f.Add([]byte{2, 3, 0, 30, 3, 1, 5, 9, 9, 255, 0, 0, 0, 6, 0, 0, 0, 1, 0, 0, 2, 2})                                    // spanner, replication > servers, read fraction > 1, absurd rate, 3site
	f.Add([]byte{3, 6, 2, 50, 2, 1, 0, 0, 3, 100, 2, 2, 99, 0, 30, 0, 1, 1, 1, 0, 1, 0, 1, 2, 1, 1, 1, 1, 0, 20, 30, 40}) // naivefast certified under every fault kind
	f.Add([]byte{0, 5, 1, 20, 4, 2, 2, 0, 1, 100, 2, 2, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 0, 0, 0, 0, 0, 0, 0})      // infinite rate under default-timed faults
	f.Fuzz(func(t *testing.T, data []byte) {
		p, cfg := configFrom(data)
		rep, err := Run(p, cfg)
		if err != nil {
			return
		}
		if rep.Committed+rep.Rejected+rep.Incomplete != rep.Issued {
			t.Fatalf("%s %+v: committed %d + rejected %d + incomplete %d != issued %d",
				p.Name(), cfg, rep.Committed, rep.Rejected, rep.Incomplete, rep.Issued)
		}
	})
}
