package core

import (
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/protocol"
)

// Certification is the outcome of certifying one load run: the verdict
// of the ride-along incremental session, cross-checked against the
// one-shot batch solver over the same recorded history, with both
// wall-clocks so the incremental-vs-batch cost of every cell is visible
// in the grids.
type Certification struct {
	// Level is the consistency level checked (the protocol's claim).
	Level string
	// OK and Reason are the shared verdict (the two engines must agree;
	// a disagreement is surfaced as an error, not a report).
	OK     bool
	Reason string
	// Txns is the number of committed transactions certified.
	Txns int
	// FirstViolation is the append index of the first offending commit
	// (-1 when the run certified clean) — the incremental session pins
	// violations to the commit that introduced them.
	FirstViolation int
	// IncrementalWall is the cumulative wall-clock the run spent inside
	// the ride-along session; BatchWall is the wall-clock of re-solving
	// the full recorded history from scratch (zero when the cell runs
	// past history.MaxTxns and the batch cross-check is skipped — the
	// streaming session is the only exact checker up there). Both are
	// the only nondeterministic fields of a certified report.
	IncrementalWall time.Duration
	BatchWall       time.Duration
}

// runCell runs one load cell and adds what core owns on top of the
// driver's spec: with cfg.Certify the run is certified ride-along by the
// driver's streaming session, and — for cells at or below
// history.MaxTxns, the batch solver's ceiling — its history is recorded
// (core sets cfg.RecordHistory; callers do not) and re-solved from
// scratch as a cross-check. The history is dropped once cross-checked, so
// a report never pins it.
func runCell(p protocol.Protocol, cfg driver.Config) (*driver.Report, Certification, error) {
	cfg.RecordHistory = cfg.Certify && cfg.Txns <= history.MaxTxns
	load, err := driver.Run(p, cfg)
	if err != nil || !cfg.Certify {
		return load, Certification{}, err
	}
	cert, err := certifyRun(load)
	load.History = nil
	return load, cert, err
}

// certifyRun extracts the ride-along verdict from a load run and
// re-checks the recorded history with the batch solver. The incremental
// and batch verdicts disagreeing means a checker bug, never a
// measurement: it is returned as an error so no grid can silently
// publish either verdict. Cells past history.MaxTxns skip the
// cross-check (the batch solver refuses histories that large; the
// streaming session's verdict stands alone, differentially validated
// below the ceiling and by the history package's eviction fuzz).
func certifyRun(load *driver.Report) (Certification, error) {
	cert := Certification{
		Level:           load.CertLevel,
		OK:              load.Cert.OK,
		Reason:          load.Cert.Reason,
		Txns:            load.Cert.Appended,
		FirstViolation:  load.Cert.FirstViolation,
		IncrementalWall: load.CertWall,
	}
	if load.History == nil || load.History.Len() > history.MaxTxns {
		return cert, nil
	}
	start := time.Now()
	batch := history.CheckBatch(load.History, load.CertLevel)
	cert.BatchWall = time.Since(start)
	if batch.OK != load.Cert.OK {
		return cert, fmt.Errorf(
			"core: incremental and batch certification disagree for %s at %s: session %v (%s), batch %v (%s)",
			load.Protocol, load.CertLevel, load.Cert.OK, load.Cert.Reason, batch.OK, batch.Reason)
	}
	return cert, nil
}
