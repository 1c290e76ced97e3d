package driver

import (
	"encoding/json"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/spanner"
	"repro/internal/workload"
)

// reportFingerprint marshals a report plus its history with the
// wall-clock (the one nondeterministic field) and the Workers stat (the
// configuration echo under comparison) zeroed, so runs can be compared
// byte for byte.
func reportFingerprint(t *testing.T, rep *Report) string {
	t.Helper()
	cw, workers := rep.CertWall, rep.Sharding.Workers
	rep.CertWall, rep.Sharding.Workers = 0, 0
	js, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	rep.CertWall, rep.Sharding.Workers = cw, workers
	out := string(js)
	if rep.History != nil {
		out += "\n" + rep.History.String()
	}
	return out
}

// TestShardedWorkersByteIdentical is the serial-equals-parallel contract
// of sharded stepping: for a fixed seed and shard partition, Workers is an
// execution knob, not a semantic one. Workers=1 executes the schedule
// serially and is the differential oracle; Workers=2, 4 and 8 must
// reproduce its report, history and ride-along certification verdict byte
// for byte, across three protocols in both load regimes. Every recorded
// history must also be in completion order: a round finishes transactions
// on many clients at once, and the session and the recovery marks read the
// collection order as a timeline.
func TestShardedWorkersByteIdentical(t *testing.T) {
	protos := []struct {
		name string
		mk   func() protocol.Protocol
	}{
		{"cops", func() protocol.Protocol { return cops.New() }},
		{"cure", func() protocol.Protocol { return cure.New() }},
		{"spanner", func() protocol.Protocol { return spanner.New() }},
	}
	modes := []struct {
		name string
		rate float64
	}{
		{"closed", 0},
		{"open", 800},
	}
	for _, p := range protos {
		for _, mode := range modes {
			t.Run(p.name+"-"+mode.name+"-lookahead", func(t *testing.T) {
				base := Config{
					Clients: 8, Txns: 72, Mix: workload.Balanced(), Seed: 7,
					Servers: 4, ObjectsPerServer: 2,
					Rate:          mode.rate,
					RecordHistory: true, Certify: true,
				}
				runWith := func(workers int) (*Report, string) {
					cfg := base
					cfg.Workers = workers
					rep, err := Run(p.mk(), cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if rep.Incomplete != 0 {
						t.Fatalf("workers=%d: %d transactions incomplete", workers, rep.Incomplete)
					}
					if rep.Committed == 0 {
						t.Fatalf("workers=%d: nothing committed", workers)
					}
					if rep.Sharding == nil || rep.Sharding.Shards != 4 {
						t.Fatalf("workers=%d: sharding stats missing or wrong: %+v", workers, rep.Sharding)
					}
					recs := rep.History.Records()
					for i := 1; i < len(recs); i++ {
						if recs[i].Completed < recs[i-1].Completed {
							t.Fatalf("workers=%d: record %d (%s) completed at %d, before record %d at %d",
								workers, i, recs[i].ID, recs[i].Completed, i-1, recs[i-1].Completed)
						}
					}
					return rep, reportFingerprint(t, rep)
				}
				oracle, want := runWith(1)
				if oracle.Cert == nil {
					t.Fatal("ride-along certification did not run")
				}
				for _, workers := range []int{2, 4, 8} {
					_, got := runWith(workers)
					diffLines(t, "sharded report", want, got)
				}
			})
		}
	}
}

// TestRebalanceDeterministic: the probe-run shard rebalance is a pure
// function of the seed and configuration — two rebalanced runs reproduce
// each other byte for byte, the measured partition is reported, and the
// rebalanced schedule is still worker-count-independent and certifies
// clean.
func TestRebalanceDeterministic(t *testing.T) {
	base := Config{
		Clients: 8, Txns: 72, Mix: workload.Balanced(), Seed: 7,
		Servers: 4, ObjectsPerServer: 2,
		Rebalance:     true,
		RecordHistory: true, Certify: true,
	}
	runWith := func(workers int) (*Report, string) {
		cfg := base
		cfg.Workers = workers
		rep, err := Run(cops.New(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Sharding == nil || !rep.Sharding.Rebalanced {
			t.Fatalf("workers=%d: rebalance did not happen: %+v", workers, rep.Sharding)
		}
		if len(rep.Sharding.Partition) == 0 {
			t.Fatalf("workers=%d: rebalanced partition not reported", workers)
		}
		if rep.Cert == nil || !rep.Cert.OK {
			t.Fatalf("workers=%d: rebalanced run does not certify: %+v", workers, rep.Cert)
		}
		return rep, reportFingerprint(t, rep)
	}
	_, want := runWith(1)
	_, again := runWith(1)
	diffLines(t, "rebalance repeat", want, again)
	for _, workers := range []int{2, 4} {
		_, got := runWith(workers)
		diffLines(t, "rebalanced report", want, got)
	}
}

// TestMidWindowRefillKeepsThroughput regression-pins the gap the
// mid-window refill closes: with completions re-arming their client
// inside the round, 200 cops transactions on 8 saturated clients span
// 53507 virtual µs (3737.8 txn/s). Pinned as a number since the serial
// Workers=0 engine this used to be compared against is gone — it read
// 54158 µs (3692.9 txn/s) on the same cell, and a refill that waited for
// the round boundary reads well above both. The schedule is
// deterministic, so the pin is exact.
func TestMidWindowRefillKeepsThroughput(t *testing.T) {
	rep, err := Run(cops.New(), Config{
		Clients: 8, Txns: 200, Mix: workload.Balanced(), Seed: 7,
		Servers: 4, ObjectsPerServer: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete != 0 || rep.Committed != 200 {
		t.Fatalf("committed %d, incomplete %d, want 200 and 0", rep.Committed, rep.Incomplete)
	}
	if rep.Duration != 53507 {
		t.Errorf("closed-loop run spanned %d µs (%.1f txn/s), pinned 53507 (3737.8)", rep.Duration, rep.Throughput)
	}
}

// TestShardedRunsAreValidExecutions: a sharded schedule is a different
// member of the asynchronous model's schedule space, not a weaker one —
// causal protocols must still certify clean at their claimed level on
// sharded histories (the cell the ptest conformance suite sweeps).
func TestShardedRunsAreValidExecutions(t *testing.T) {
	for _, mk := range []func() protocol.Protocol{
		func() protocol.Protocol { return cops.New() },
		func() protocol.Protocol { return cure.New() },
	} {
		rep, err := Run(mk(), Config{
			Clients: 8, Txns: 72, Mix: workload.Balanced(), Seed: 3,
			Servers: 2, ObjectsPerServer: 1,
			Workers: 2, RecordHistory: true, Certify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Incomplete != 0 {
			t.Fatalf("%s: %d transactions incomplete", rep.Protocol, rep.Incomplete)
		}
		if rep.Cert == nil || !rep.Cert.OK {
			t.Fatalf("%s violates its claimed level under sharded stepping: %+v", rep.Protocol, rep.Cert)
		}
	}
}

// TestShardedConfigValidation pins the incompatible-knob refusals.
func TestShardedConfigValidation(t *testing.T) {
	reb := Config{Clients: 2, Txns: 4, Rebalance: true}
	reb.defaults()
	d, err := deploy(cops.New(), reb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOn(d, reb); err == nil {
		t.Fatal("RunOn with Rebalance accepted (needs the probe deployment only Run builds)")
	}
}
