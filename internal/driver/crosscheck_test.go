package driver

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/naivefast"
	"repro/internal/workload"
)

// causalHistories returns a history the causal batch solver refutes (c1
// reads y from c0/2 but misses x from c0/1, which precedes it in c0's
// program order) and one it accepts (the same read sees x too).
func causalHistories() (refuted, accepted *history.History) {
	initial := map[string]model.Value{"x": "x0", "y": "y0"}
	mk := func(readX model.Value) *history.History {
		h := history.New(initial)
		h.Add(&history.TxnRecord{ID: model.TxnID{Client: "c0", Seq: 1}, Client: "c0",
			Writes: []model.Write{{Object: "x", Value: "x1"}}, Invoked: 0, Completed: 1})
		h.Add(&history.TxnRecord{ID: model.TxnID{Client: "c0", Seq: 2}, Client: "c0",
			Writes: []model.Write{{Object: "y", Value: "y1"}}, Invoked: 2, Completed: 3})
		h.Add(&history.TxnRecord{ID: model.TxnID{Client: "c1", Seq: 1}, Client: "c1",
			Reads: map[string]model.Value{"x": readX, "y": "y1"}, Invoked: 4, Completed: 5})
		return h
	}
	return mk("x0"), mk("x1")
}

// TestCrossCheckDisagreementIsAnError: the driver's cross-check is what
// holds every certified run to the batch solver, so a session verdict
// the batch re-solve contradicts, either way round, must come back as an
// error; agreement, and a history past the batch ceiling, must not.
func TestCrossCheckDisagreementIsAnError(t *testing.T) {
	refuted, accepted := causalHistories()
	if history.CheckBatch(refuted, "causal").OK || !history.CheckBatch(accepted, "causal").OK {
		t.Fatal("fixture histories do not have the batch verdicts they are built for")
	}
	long := history.New(nil)
	for i := 0; i <= history.MaxTxns; i++ {
		long.Add(&history.TxnRecord{ID: model.TxnID{Client: "c0", Seq: i + 1}, Client: "c0",
			Invoked: int64(2 * i), Completed: int64(2*i + 1)})
	}
	clean := history.SessionVerdict{Verdict: history.Verdict{OK: true}, FirstViolation: -1}
	refuting := history.SessionVerdict{Verdict: history.Verdict{Reason: "refuted"}, FirstViolation: 2}
	cases := []struct {
		name    string
		h       *history.History
		verdict history.SessionVerdict
		wantErr bool
	}{
		{"clean session, batch refutes", refuted, clean, true},
		{"refuting session, batch accepts", accepted, refuting, true},
		{"both refute", refuted, refuting, false},
		{"both accept", accepted, clean, false},
		{"past the batch ceiling", long, refuting, false},
		{"no history", nil, clean, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := &Report{Protocol: "p", CertLevel: "causal"}
			drained := false
			err := crossCheck(rep, tc.h, func() {
				drained = true
				v := tc.verdict
				rep.Cert = &v
			})
			if !drained {
				t.Fatal("cross-check returned without draining the session")
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("error = %v, want error: %v", err, tc.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), "disagree") {
				t.Fatalf("error does not name the disagreement: %v", err)
			}
		})
	}
}

// TestCertifiedRunLeavesNoGoroutine: every way a certified run ends —
// clean, sealed at a violation, open loop, past the batch ceiling with no
// cross-check, and refused before the simulation starts — stops the
// session's goroutine before Run returns. Certify alone decides the
// cross-check: a run without RecordHistory records the history the batch
// re-solve needs up to history.MaxTxns transactions, none past it, and
// does not hand it out.
func TestCertifiedRunLeavesNoGoroutine(t *testing.T) {
	// check counts goroutines in the subtest's own goroutine, before and
	// after the certified run, and waits for the count to come back.
	check := func(name string, body func(t *testing.T)) {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			body(t)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
	check("closed loop", func(t *testing.T) {
		rep, err := Run(cops.New(), Config{Clients: 8, Txns: 100, Mix: workload.Balanced(), Seed: 5,
			RecordHistory: true, Certify: true})
		if err != nil || !rep.Cert.OK {
			t.Fatalf("err %v, verdict %+v", err, rep.Cert)
		}
	})
	check("certified without RecordHistory", func(t *testing.T) {
		r, rep := closedRun(t, cops.New(), Config{Clients: 8, Txns: 100, Mix: workload.Balanced(), Seed: 5,
			Certify: true}, (*run).runClosed)
		if !rep.Cert.OK {
			t.Fatalf("verdict %+v", rep.Cert)
		}
		if r.hist == nil || r.hist.Len() != rep.Committed {
			t.Fatal("the run recorded no history for the batch cross-check")
		}
		if rep.History != nil {
			t.Fatal("the cross-check's history was handed out without RecordHistory")
		}
	})
	check("sealed", func(t *testing.T) {
		rep, err := Run(naivefast.New(), Config{Clients: 8, Txns: 96, Mix: workload.Balanced(), Seed: 2,
			Servers: 2, ObjectsPerServer: 1, RecordHistory: true, Certify: true})
		if err != nil || rep.Cert.OK {
			t.Fatalf("err %v, verdict %+v", err, rep.Cert)
		}
	})
	check("open loop", func(t *testing.T) {
		rep, err := Run(cure.New(), Config{Clients: 8, Txns: 100, Mix: workload.Balanced(), Seed: 3, Rate: 1000,
			RecordHistory: true, Certify: true})
		if err != nil || !rep.Cert.OK {
			t.Fatalf("err %v, verdict %+v", err, rep.Cert)
		}
	})
	check("past the batch ceiling", func(t *testing.T) {
		r, rep := closedRun(t, cops.New(), Config{Clients: 2, Txns: history.MaxTxns + 100, Mix: workload.Balanced(), Seed: 1,
			Certify: true}, (*run).runClosed)
		if !rep.Cert.OK {
			t.Fatalf("verdict %+v", rep.Cert)
		}
		if r.hist != nil {
			t.Fatalf("the run recorded %d transactions for a batch cross-check past the ceiling", r.hist.Len())
		}
	})
	check("nemesis refused", func(t *testing.T) {
		if _, err := Run(cops.New(), Config{Clients: 8, Txns: 100, Seed: 5, Certify: true,
			Nemesis: &Nemesis{Crashes: -1}}); err == nil {
			t.Fatal("a negative crash count built")
		}
	})
}
