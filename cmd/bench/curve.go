package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// curveRow is one grid cell of the -curve output: an open-loop run of one
// protocol × mix × offered-rate point.
type curveRow struct {
	cellCols
	Txns     int    `json:"txns"`
	Arrivals string `json:"arrivals"`

	Saturated float64 `json:"saturated_txn_per_s"`
	Fraction  float64 `json:"fraction_of_saturated"`
	Offered   float64 `json:"offered_txn_per_s"`
	Achieved  float64 `json:"achieved_txn_per_s"`
	Knee      float64 `json:"knee_txn_per_s"`

	Committed  int   `json:"committed"`
	Rejected   int   `json:"rejected"`
	Incomplete int   `json:"incomplete"`
	Events     int   `json:"events"`
	DurationUs int64 `json:"duration_us"`

	LatencyP50  int64   `json:"latency_p50_us"`
	LatencyP90  int64   `json:"latency_p90_us"`
	LatencyP99  int64   `json:"latency_p99_us"`
	LatencyMean float64 `json:"latency_mean_us"`
	QueueP50    int64   `json:"queue_delay_p50_us"`
	QueueP99    int64   `json:"queue_delay_p99_us"`
	QueueMean   float64 `json:"queue_delay_mean_us"`
	ServiceP50  int64   `json:"service_p50_us"`
	ServiceP99  int64   `json:"service_p99_us"`
	InFlightMax int64   `json:"in_flight_max"`

	// Sharded-stepping shape columns, shared with the closed-loop grid
	// rows.
	shardCols

	// Certification columns, shared with the closed-loop grid rows
	// (present with -certify only).
	certCols
}

// buildCurve measures one latency–throughput curve per cell and flattens
// the points into grid rows. Fully deterministic for a fixed sweep
// (worker count excluded: it only decides how many curves run at once; a
// curve's points follow its capacity probe, one after another).
func buildCurve(s sweep) ([]curveRow, error) {
	arrivals := "poisson"
	if s.cell.DeterministicArrivals {
		arrivals = "uniform"
	}
	return measureCells(s, func(c cell) ([]curveRow, error) {
		curve, err := core.MeasureLoadCurve(c.p, c.cfg.Mix, c.cfg.Seed, core.CurveOptions{
			Servers: c.cfg.Servers, ObjectsPerServer: c.cfg.ObjectsPerServer,
			Replication: c.cfg.Replication, Topology: c.cfg.Topology,
			Clients: c.cfg.Clients, Txns: c.cfg.Txns,
			Fractions: s.fractions, Deterministic: c.cfg.DeterministicArrivals,
			Certify: c.cfg.Certify,
		})
		if err != nil {
			return nil, err
		}
		cols := c.cols()
		var rows []curveRow
		for _, pt := range curve.Points {
			r := curveRow{
				cellCols:    cols,
				Txns:        pt.Issued,
				Arrivals:    arrivals,
				Saturated:   curve.Saturated,
				Fraction:    pt.Fraction,
				Offered:     pt.OfferedRate,
				Achieved:    pt.Throughput,
				Knee:        curve.Knee,
				Committed:   pt.Committed,
				Rejected:    pt.Rejected,
				Incomplete:  pt.Incomplete,
				Events:      pt.Events,
				DurationUs:  int64(pt.Duration),
				LatencyP50:  pt.Latency.P50,
				LatencyP90:  pt.Latency.P90,
				LatencyP99:  pt.Latency.P99,
				LatencyMean: pt.Latency.Mean,
				QueueP50:    pt.QueueDelay.P50,
				QueueP99:    pt.QueueDelay.P99,
				QueueMean:   pt.QueueDelay.Mean,
				ServiceP50:  pt.Service.P50,
				ServiceP99:  pt.Service.P99,
				InFlightMax: pt.InFlight.Max,
			}
			shardCells(&r.shardCols, pt.Sharding)
			certCells(&r.certCols, &pt.Report)
			rows = append(rows, r)
		}
		return rows, nil
	})
}

func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad fraction %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
