// Package repro is the public facade of the reproduction of Didona et al.,
// "Distributed Transactional Systems Cannot Be Fast" (SPAA 2019).
//
// It re-exports the stable entry points:
//
//   - Protocols / Protocol: the registry of 13 modeled storage systems
//     (the Table 1 systems, the §3.4 corner designs and the two
//     "impossible" victim protocols the theorem refutes);
//   - Characterize / Table1: regenerate the paper's Table 1 from measured
//     behaviour (rounds, values per message, blocking, write-transaction
//     support, consistency checks);
//   - RunTheorem: run the mechanical adversary of Theorems 1 and 2 against
//     any protocol — it either names the property the protocol sacrifices
//     or constructs a causal-consistency-violating execution;
//   - MeasureLatency / LatencySweep: the latency/staleness experiments;
//   - MeasureThroughput: closed-loop concurrent load runs (many clients,
//     per-txn latency, committed txns per virtual second) built on the
//     internal/driver harness;
//   - Deploy: build a simulated deployment for custom experiments.
//
// See DESIGN.md for the layer architecture and system inventory and
// EXPERIMENTS.md for how to run the experiments and benchmarks.
package repro

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// Protocol is a modeled storage system.
type Protocol = protocol.Protocol

// Deployment is a protocol instantiated on a simulated kernel.
type Deployment = protocol.Deployment

// Config parameterizes a deployment.
type Config = protocol.Config

// Verdict is the outcome of the theorem adversary.
type Verdict = adversary.Verdict

// Row is a measured Table 1 row.
type Row = core.Row

// LatencyReport is the outcome of a latency experiment.
type LatencyReport = core.LatencyReport

// ThroughputReport is the outcome of a closed-loop throughput run.
type ThroughputReport = driver.Report

// LoadCurve is a swept open-loop latency–throughput curve.
type LoadCurve = core.LoadCurve

// Mix describes a workload.
type Mix = workload.Mix

// Protocols returns the names of every modeled system.
func Protocols() []string { return core.Names() }

// Lookup returns the protocol with the given name.
func Lookup(name string) (Protocol, error) {
	p := core.ByName(name)
	if p == nil {
		return nil, fmt.Errorf("repro: unknown protocol %q (have %v)", name, core.Names())
	}
	return p, nil
}

// Deploy builds a deployment of the named protocol and initializes the
// objects (the paper's Q_0).
func Deploy(name string, cfg Config) (*Deployment, error) {
	p, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	d := protocol.Deploy(p, cfg)
	if err := d.InitAll(400_000); err != nil {
		return nil, err
	}
	return d, nil
}

// Characterize measures one protocol's Table 1 row.
func Characterize(name string, seeds []int64) (Row, error) {
	p, err := Lookup(name)
	if err != nil {
		return Row{}, err
	}
	return core.Characterize(p, seeds)
}

// Table1 regenerates the paper's Table 1 (measured) for all protocols.
func Table1(seeds []int64) (string, error) {
	rows, err := core.Table1(seeds)
	if err != nil {
		return "", err
	}
	return core.FormatTable1(rows), nil
}

// RunTheorem runs the adversary of Theorem 1 against the named protocol.
func RunTheorem(name string) (*Verdict, error) {
	p, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return adversary.NewAttack(p).Run()
}

// RunTheoremPartial runs the general (Theorem 2) attack: m servers,
// partially replicated objects.
func RunTheoremPartial(name string, servers int) (*Verdict, error) {
	p, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	a := adversary.NewAttack(p)
	a.Cfg = protocol.Config{
		Servers: servers, ObjectsPerServer: 1, Replication: 2,
		Clients: 2, Readers: 8, Seed: 101,
	}
	return a.Run()
}

// MeasureLatency runs the latency experiment for one protocol.
func MeasureLatency(name string, mix Mix, txns int, seed int64) (LatencyReport, error) {
	p, err := Lookup(name)
	if err != nil {
		return LatencyReport{}, err
	}
	return core.MeasureLatency(p, mix, txns, seed)
}

// MeasureThroughput runs a closed-loop concurrent load experiment: clients
// concurrent clients submitting txns transactions of the mix, reporting
// throughput and latency under load.
func MeasureThroughput(name string, mix Mix, clients, txns int, seed int64) (ThroughputReport, error) {
	p, err := Lookup(name)
	if err != nil {
		return ThroughputReport{}, err
	}
	rep, err := driver.Run(p, driver.Config{Clients: clients, Txns: txns, Mix: mix, Seed: seed})
	if err != nil {
		return ThroughputReport{}, err
	}
	return *rep, nil
}

// MeasureLoadCurve runs the open-loop latency–throughput curve
// experiment: the protocol's saturated throughput is estimated
// closed-loop, then offered load is swept from light load to past
// saturation, reporting queueing delay and latency per point and the
// knee of the curve.
func MeasureLoadCurve(name string, mix Mix, seed int64) (LoadCurve, error) {
	p, err := Lookup(name)
	if err != nil {
		return LoadCurve{}, err
	}
	return core.MeasureLoadCurve(p, mix, seed, core.CurveOptions{})
}

// ReadHeavy is the canonical 95/5 workload mix.
func ReadHeavy() Mix { return workload.ReadHeavy() }

// Balanced is the 50/50 workload mix.
func Balanced() Mix { return workload.Balanced() }
