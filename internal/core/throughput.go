package core

import (
	"repro/internal/driver"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// ThroughputReport is the outcome of one closed-loop throughput run (the
// load regime the paper's introduction motivates: many concurrent clients
// over a skewed read-heavy mix): the driver's report of the run plus what
// the driver does not know.
type ThroughputReport struct {
	driver.Report
	Mix workload.Mix
	// Cert is the certification outcome (Level empty unless the run's
	// driver.Config.Certify was set). It shadows the embedded report's
	// session verdict, which it summarizes beside the batch cross-check's
	// wall-clock.
	Cert Certification
}

// MeasureThroughput runs txns transactions of the mix over the given
// number of concurrent closed-loop clients and reports throughput and
// latency under load.
func MeasureThroughput(p protocol.Protocol, mix workload.Mix, clients, txns int, seed int64) (ThroughputReport, error) {
	return MeasureThroughputWith(p, driver.Config{Clients: clients, Txns: txns, Mix: mix, Seed: seed})
}

// MeasureThroughputWith runs the cell cfg describes (driver.Config is the
// one run spec) and certifies it when cfg.Certify is set.
func MeasureThroughputWith(p protocol.Protocol, cfg driver.Config) (ThroughputReport, error) {
	load, cert, err := runCell(p, cfg)
	if err != nil {
		return ThroughputReport{}, err
	}
	return ThroughputReport{Report: *load, Mix: cfg.Mix, Cert: cert}, nil
}
