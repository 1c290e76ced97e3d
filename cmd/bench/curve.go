package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/protocol"
)

// curveRow is one grid cell of the -curve output: an open-loop run of one
// protocol × mix × offered-rate point.
type curveRow struct {
	Protocol     string  `json:"protocol"`
	MixName      string  `json:"mix"`
	ReadFraction float64 `json:"read_fraction"`
	ZipfS        float64 `json:"zipf_s"`
	Servers      int     `json:"servers"`
	Replication  int     `json:"replication"`
	Topology     string  `json:"topology,omitempty"`
	Sites        int     `json:"sites,omitempty"`
	Clients      int     `json:"clients"`
	Txns         int     `json:"txns"`
	Arrivals     string  `json:"arrivals"`

	Saturated float64 `json:"saturated_txn_per_s"`
	Fraction  float64 `json:"fraction_of_saturated"`
	Offered   float64 `json:"offered_txn_per_s"`
	Achieved  float64 `json:"achieved_txn_per_s"`
	Knee      float64 `json:"knee_txn_per_s"`
	// Refined marks a knee-bisection point (-refineknee): it ran after
	// the swept fractions with the longer refinement window, and its
	// txns column reflects that window.
	Refined bool `json:"refined,omitempty"`

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

// curveConfig parameterizes a curve grid build.
type curveConfig struct {
	protocols   []string
	mixes       []string
	fractions   []float64
	clients     []int
	txns        []int
	servers     []int
	replication []int
	topologies  []string
	objects     int
	seed        int64
	uniform     bool // deterministic-rate arrivals instead of Poisson
	certify     bool // ride-along certification of every point
	refineKnee  bool // bisect the knee after each fraction sweep
	workers     int
	rebalance   bool
}

// buildCurve measures one latency–throughput curve per protocol × mix ×
// servers × replication and flattens the points into grid rows. Fully
// deterministic for a fixed config (worker count excluded: it only
// parallelizes the stepping).
func buildCurve(cfg curveConfig) ([]curveRow, error) {
	if len(cfg.topologies) == 0 {
		cfg.topologies = []string{"uniform"} // the pre-topology default
	}
	arrivals := "poisson"
	if cfg.uniform {
		arrivals = "uniform"
	}
	rows := []curveRow{}
	for _, name := range cfg.protocols {
		p := core.ByName(strings.TrimSpace(name))
		if p == nil {
			return nil, fmt.Errorf("unknown protocol %q (have %v)", name, core.Names())
		}
		for _, mixName := range cfg.mixes {
			mix, err := mixByName(strings.TrimSpace(mixName))
			if err != nil {
				return nil, err
			}
			for _, topoName := range cfg.topologies {
				topo, err := protocol.TopologyByName(strings.TrimSpace(topoName))
				if err != nil {
					return nil, err
				}
				topoCol, sitesCol := "", 0
				if topo != nil {
					topoCol, sitesCol = topo.Name, topo.Sites
				}
				for _, srv := range cfg.servers {
					for _, repl := range cfg.replication {
						if repl > srv {
							continue // replication factor cannot exceed servers
						}
						for _, txns := range cfg.txns {
							for _, cl := range cfg.clients {
								curve, err := core.MeasureLoadCurve(p, mix, cfg.seed, core.CurveOptions{
									Servers: srv, ObjectsPerServer: cfg.objects,
									Replication: repl,
									Clients:     cl, Txns: txns,
									Fractions: cfg.fractions, Deterministic: cfg.uniform,
									Topology:   topo,
									Certify:    cfg.certify,
									RefineKnee: cfg.refineKnee,
									Workers:    cfg.workers, Rebalance: cfg.rebalance,
								})
								if err != nil {
									return nil, err
								}
								for _, pt := range curve.Points {
									// Refinement points ran the longer bisection
									// window; their txns column says which.
									ptTxns := txns
									if pt.Refined {
										ptTxns = 2 * txns
									}
									rows = append(rows, curveRow{
										Protocol:     curve.Protocol,
										MixName:      strings.TrimSpace(mixName),
										ReadFraction: mix.ReadFraction,
										ZipfS:        mix.ZipfS,
										Servers:      srv,
										Replication:  repl,
										Topology:     topoCol,
										Sites:        sitesCol,
										Clients:      cl,
										Txns:         ptTxns,
										Arrivals:     arrivals,
										Saturated:    curve.Saturated,
										Fraction:     pt.Fraction,
										Offered:      pt.Offered,
										Achieved:     pt.Achieved,
										Knee:         curve.Knee,
										Refined:      pt.Refined,
										Committed:    pt.Committed,
										Rejected:     pt.Rejected,
										Incomplete:   pt.Incomplete,
										Events:       pt.Events,
										DurationUs:   int64(pt.Duration),
										LatencyP50:   pt.Latency.P50,
										LatencyP90:   pt.Latency.P90,
										LatencyP99:   pt.Latency.P99,
										LatencyMean:  pt.Latency.Mean,
										QueueP50:     pt.QueueDelay.P50,
										QueueP99:     pt.QueueDelay.P99,
										QueueMean:    pt.QueueDelay.Mean,
										ServiceP50:   pt.Service.P50,
										ServiceP99:   pt.Service.P99,
										InFlightMax:  pt.InFlight.Max,
									})
									shardCells(&rows[len(rows)-1].shardCols, pt.Sharding)
									if cfg.certify {
										certCells(&rows[len(rows)-1].certCols, pt.Cert)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return rows, nil
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
