package driver

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/naivefast"
	"repro/internal/protocols/spanner"
	"repro/internal/workload"
)

// drainDigest is a short sha256 over what a closed-loop run fed its
// ordered consumers and what they made of it: the recorded history in
// feed order (transaction ID and completion instant per line), the
// session's verdict, the nemesis report (recovery marks close on the
// first qualifying commit of the drain) and the staleness tallies (one
// probe decision per batch the driver takes).
func drainDigest(rep *Report) string {
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
		fmt.Fprintf(h, "%+v\n", *rep.Nemesis)
	}
	if rep.Staleness != nil {
		fmt.Fprintf(h, "%+v\n", *rep.Staleness)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestDrainSequencePins pins the sequence in which a closed-loop run
// hands finished transactions to the consumers that read it as a
// timeline — recorded history, ride-along session, nemesis recovery
// marks — and the batches the staleness probe decides on: pipeline 1 and
// 4, 4 and 8 servers, fault-free and through crash+partition, probed and
// not. When the driver drains is an implementation choice; what it feeds,
// and in which order, is part of every certified, faulted or probed grid.
func TestDrainSequencePins(t *testing.T) {
	protos := []struct {
		name string
		mk   func() protocol.Protocol
	}{
		{"cops", func() protocol.Protocol { return cops.New() }},
		{"spanner", func() protocol.Protocol { return spanner.New() }},
		{"naivefast", func() protocol.Protocol { return naivefast.New() }},
	}
	faults := &Nemesis{Crashes: 1, Partitions: 1, Start: 20_000, Period: 120_000, Duration: 10_000}
	cells := []struct {
		name              string
		servers, pipeline int
		nem               *Nemesis
		stale             bool
		want              [3]string // by protocol, in protos order
	}{
		{"4srv-p1", 4, 1, nil, false, [3]string{"6e215445c64b50d1", "f78abf6c469d616a", "05947703ed6bc42d"}},
		{"4srv-p4", 4, 4, nil, false, [3]string{"6e215445c64b50d1", "f78abf6c469d616a", "05947703ed6bc42d"}},
		{"8srv-p1", 8, 1, nil, false, [3]string{"a67288145d48eb99", "16e06272a17e2914", "97c98f849696194b"}},
		{"8srv-p4", 8, 4, nil, false, [3]string{"a67288145d48eb99", "16e06272a17e2914", "97c98f849696194b"}},
		{"4srv-p1-faults", 4, 1, faults, false, [3]string{"edca4c842dadd4dc", "66357f1799c4e94e", "d2df68b58b292d97"}},
		{"4srv-p4-faults", 4, 4, faults, false, [3]string{"edca4c842dadd4dc", "66357f1799c4e94e", "d2df68b58b292d97"}},
		{"8srv-p4-faults", 8, 4, faults, false, [3]string{"ebb43ae6fbc68059", "262c499ed035cff8", "4c7dc58e5f3ba502"}},
		{"4srv-p1-stale", 4, 1, nil, true, [3]string{"38e0de44a65d209b", "24fb1cf1773359aa", "d944ba3441577c9f"}},
		{"4srv-p4-stale-faults", 4, 4, faults, true, [3]string{"892c8087b5b7bf1f", "dbb2cbc411cc1879", "0174c774f9002a5c"}},
		{"8srv-p1-stale-faults", 8, 1, faults, true, [3]string{"ec0d311a26bb17e1", "f0be35d9fe804b5a", "a89a7fa5da49e36b"}},
	}
	for _, c := range cells {
		for pi, p := range protos {
			rep, err := Run(p.mk(), Config{
				Clients: 8, Txns: 400, Mix: workload.Balanced(), Seed: 5,
				Servers: c.servers, ObjectsPerServer: 2, Pipeline: c.pipeline,
				Nemesis: c.nem, ProbeStaleness: c.stale,
				Certify: true, RecordHistory: true,
			})
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, p.name, err)
			}
			if rep.Incomplete != 0 {
				t.Fatalf("%s %s: %d transactions incomplete", c.name, p.name, rep.Incomplete)
			}
			if c.stale && rep.Staleness.Probes == 0 {
				t.Fatalf("%s %s: no staleness probe ran", c.name, p.name)
			}
			if c.nem != nil && rep.Nemesis.Applied == 0 {
				t.Fatalf("%s %s: no fault applied", c.name, p.name)
			}
			if got := drainDigest(rep); got != c.want[pi] {
				t.Errorf("%s %s: drain digest %s, pinned %s", c.name, p.name, got, c.want[pi])
			}
		}
	}
}
