package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/gentlerain"
	"repro/internal/protocols/naivefast"
	"repro/internal/protocols/spanner"
	"repro/internal/workload"
)

// drainDigest is a short sha256 over what a closed-loop run fed its
// ordered consumers and what they made of it: the recorded history in
// feed order (transaction ID and completion instant per line), the
// session's verdict, the nemesis report as JSON without its unpinned keys
// (recovery marks close on the first qualifying commit of the drain) and
// the staleness tallies (one probe decision per batch the driver takes).
func drainDigest(t *testing.T, rep *Report) string {
	t.Helper()
	h := sha256.New()
	for _, rec := range rep.History.Records() {
		fmt.Fprintln(h, rec.ID, rec.Completed)
	}
	v := rep.Cert
	fmt.Fprintln(h, v.OK, v.Appended, v.FirstViolation, v.FirstViolationID, v.Resolves, v.Retired, v.PeakWindow)
	for _, id := range v.WitnessPrefix {
		fmt.Fprintln(h, id)
	}
	fmt.Fprintln(h, rep.Committed, rep.Rejected, rep.Incomplete, rep.Events, rep.Duration)
	if rep.Nemesis != nil {
		js, err := json.Marshal(withoutKeys(t, rep.Nemesis, unpinnedNemesisKeys...))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n", js)
	}
	if rep.Staleness != nil {
		fmt.Fprintf(h, "%+v\n", *rep.Staleness)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestDrainSequencePins pins the sequence in which a run hands finished
// transactions to the consumers that read it as a timeline — recorded
// history, ride-along session, nemesis recovery marks — and the batches
// the staleness probe decides on: closed loop at pipeline 1 and 4, 4 and
// 8 servers, fault-free and through crash+partition, probed and not, plus
// a probed 2site cell and a probed open-loop cell; on cops, naivefast and
// the two models that tell the engine when they can step again
// (sim.Waker), spanner and gentlerain. When the driver drains is an
// implementation choice; what it feeds, and in which order, is part of
// every certified, faulted or probed grid.
func TestDrainSequencePins(t *testing.T) {
	protos := []struct {
		name string
		mk   func() protocol.Protocol
	}{
		{"cops", func() protocol.Protocol { return cops.New() }},
		{"spanner", func() protocol.Protocol { return spanner.New() }},
		{"naivefast", func() protocol.Protocol { return naivefast.New() }},
		{"gentlerain", func() protocol.Protocol { return gentlerain.New() }},
	}
	faults := &Nemesis{Crashes: 1, Partitions: 1, Start: 20_000, Period: 120_000, Duration: 10_000}
	cells := []struct {
		name              string
		servers, pipeline int
		nem               *Nemesis
		stale             bool
		want              [4]string // by protocol, in protos order
	}{
		{"4srv-p1", 4, 1, nil, false, [4]string{"6e215445c64b50d1", "0e14f0635e341e17", "05947703ed6bc42d", "96020b0933c6c028"}},
		{"4srv-p4", 4, 4, nil, false, [4]string{"6e215445c64b50d1", "0e14f0635e341e17", "05947703ed6bc42d", "96020b0933c6c028"}},
		{"8srv-p1", 8, 1, nil, false, [4]string{"a67288145d48eb99", "16e06272a17e2914", "97c98f849696194b", "71fc881b3a72ed39"}},
		{"8srv-p4", 8, 4, nil, false, [4]string{"a67288145d48eb99", "16e06272a17e2914", "97c98f849696194b", "71fc881b3a72ed39"}},
		{"4srv-p1-faults", 4, 1, faults, false, [4]string{"59e9bbae616b54f9", "b30e1715444f99fb", "2a152f5c396bc0a0", "6a3f43d5c123f2c3"}},
		{"4srv-p4-faults", 4, 4, faults, false, [4]string{"59e9bbae616b54f9", "b30e1715444f99fb", "2a152f5c396bc0a0", "6a3f43d5c123f2c3"}},
		{"8srv-p4-faults", 8, 4, faults, false, [4]string{"703c89db20a2f2d0", "d62d05d204c6bb58", "a44e9153ae786c2c", "67da8f7ea528f537"}},
		{"4srv-p1-stale", 4, 1, nil, true, [4]string{"38e0de44a65d209b", "a755aa51c28c187a", "d944ba3441577c9f", "bbfc7a75c0a52092"}},
		{"4srv-p4-stale-faults", 4, 4, faults, true, [4]string{"25e94c4e1a27ebc5", "42e19514e46eed0f", "087d0c1d00233c66", "6008c8b4254976f5"}},
		{"8srv-p1-stale-faults", 8, 1, faults, true, [4]string{"c5b6d4b58095aa1c", "66a04c32db89ef30", "aac6bc15d6d8aa82", "67752d7f28b51ec2"}},
	}
	pin := func(cell string, pi int, cfg Config, want string) {
		t.Helper()
		p := protos[pi]
		rep, err := Run(p.mk(), cfg)
		if err != nil {
			t.Fatalf("%s %s: %v", cell, p.name, err)
		}
		if rep.Incomplete != 0 {
			t.Fatalf("%s %s: %d transactions incomplete", cell, p.name, rep.Incomplete)
		}
		if cfg.ProbeStaleness && rep.Staleness.Probes == 0 {
			t.Fatalf("%s %s: no staleness probe ran", cell, p.name)
		}
		if cfg.Nemesis != nil && rep.Nemesis.Applied == 0 {
			t.Fatalf("%s %s: no fault applied", cell, p.name)
		}
		if got := drainDigest(t, rep); got != want {
			t.Errorf("%s %s: drain digest %s, pinned %s", cell, p.name, got, want)
		}
	}
	base := Config{
		Clients: 8, Txns: 400, Mix: workload.Balanced(), Seed: 5,
		ObjectsPerServer: 2, Certify: true, RecordHistory: true,
	}
	for _, c := range cells {
		for pi := range protos {
			cfg := base
			cfg.Servers, cfg.Pipeline, cfg.Nemesis, cfg.ProbeStaleness = c.servers, c.pipeline, c.nem, c.stale
			pin(c.name, pi, cfg, c.want[pi])
		}
	}
	// Two shapes beside the uniform closed loop: a 2site deployment, the
	// only one whose per-link floors differ, so the floor holds back the
	// most results; and the open loop, which drains at every injection.
	twoSite, err := protocol.TopologyByName("2site")
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		set  func(*Config)
		want [4]string
	}{
		{"4srv-p4-stale-2site", func(c *Config) { c.Servers, c.Pipeline, c.ProbeStaleness, c.Topology = 4, 4, true, twoSite },
			[4]string{"5ac8ab04da83f864", "228e48056bd6e34c", "cf1d1ccd44156652", "03b15c0d4ce9b192"}},
		{"4srv-stale-open", func(c *Config) { c.Servers, c.Rate, c.ProbeStaleness = 4, 3000, true },
			[4]string{"79847400a464b63d", "8a8be3e485f8a463", "d02f793c24fc1244", "28be4dde2c3a1021"}},
	}
	for _, s := range shapes {
		for pi := range protos {
			cfg := base
			s.set(&cfg)
			pin(s.name, pi, cfg, s.want[pi])
		}
	}
}
