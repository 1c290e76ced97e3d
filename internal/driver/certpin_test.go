package driver

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/naivefast"
	"repro/internal/protocols/spanner"
	"repro/internal/workload"
)

// idsDigest is a short sha256 over a serialization (or witness prefix),
// one ID per line.
func idsDigest(ids []model.TxnID) string {
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintln(h, id)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestCertRidePins pins the ride-along verdict of the benchmark's four
// cert-ride cells (cmd/perf/README.md), run in-process at two sub-seeds:
// everything a session rework must leave alone — verdict, appends, first
// offender, solver fallbacks, eviction counters and the witness itself
// (the serialization on a clean cell, the refutable prefix on naivefast).
// A rework of the closure representation that changes any effective row
// shows here as a different witness or resolve count.
func TestCertRidePins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	type pin struct {
		ok                        bool
		appended, first           int
		firstID                   string
		resolves, retired, window int
		witness                   string
	}
	cells := []struct {
		name string
		p    func() protocol.Protocol
		cfg  Config
		pins map[int64]pin
	}{
		{"cops-reads", func() protocol.Protocol { return cops.New() },
			Config{Mix: workload.ReadHeavy(), Servers: 4, Clients: 16, Txns: 1000},
			map[int64]pin{
				7000:  {true, 1000, -1, "", 27, 0, 1000, "1d57466690da1741"},
				42001: {true, 1000, -1, "", 23, 0, 1000, "c12e733825413396"},
			}},
		{"cops-writes", func() protocol.Protocol { return cops.New() },
			Config{Mix: workload.Balanced(), Servers: 4, Clients: 8, Txns: 500},
			map[int64]pin{
				7000:  {true, 500, -1, "", 7, 0, 500, "dce10eecfa8e1710"},
				42001: {true, 500, -1, "", 8, 0, 500, "56c4de134cf71109"},
			}},
		{"spanner-reads", func() protocol.Protocol { return spanner.New() },
			Config{Mix: workload.ReadHeavy(), Servers: 4, Clients: 8, Txns: 750},
			map[int64]pin{
				7000:  {true, 750, -1, "", 0, 0, 750, "f9951fe99c750c38"},
				42001: {true, 750, -1, "", 3, 0, 750, "5de31f43c1c201e7"},
			}},
		{"naivefast", func() protocol.Protocol { return naivefast.New() },
			Config{Mix: workload.ReadHeavy(), Servers: 2, Clients: 64, Txns: 2000},
			map[int64]pin{
				7000:  {false, 60, 59, "c48/1", 0, 0, 60, "8c1a507190954fdf"},
				42001: {false, 51, 50, "c47/1", 0, 0, 51, "142ddbdeb895356e"},
			}},
	}
	for _, c := range cells {
		for _, seed := range []int64{7000, 42001} {
			cfg := c.cfg
			cfg.Seed, cfg.ObjectsPerServer, cfg.Replication = seed, 2, 1
			cfg.Certify, cfg.RecordHistory = true, true
			rep, err := Run(c.p(), cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			v := rep.Cert
			got := pin{v.OK, v.Appended, v.FirstViolation, "", v.Resolves, v.Retired, v.PeakWindow, idsDigest(v.Witness)}
			if !v.OK {
				got.firstID, got.witness = v.FirstViolationID.String(), idsDigest(v.WitnessPrefix)
			}
			if want := c.pins[seed]; got != want {
				t.Errorf("%s seed %d:\n got %+v\nwant %+v (%s)", c.name, seed, got, want, v.Reason)
			}
			// The recorded history is what the session was fed: the batch
			// oracle must reach the same verdict over it.
			if batch := history.CheckBatch(rep.History, rep.CertLevel); batch.OK != v.OK {
				t.Errorf("%s seed %d: session OK=%v, batch OK=%v (%s)", c.name, seed, v.OK, batch.OK, batch.Reason)
			}
		}
	}
}
