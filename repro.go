// Package repro is the public facade of the reproduction of Didona et al.,
// "Distributed Transactional Systems Cannot Be Fast" (SPAA 2019).
//
// It re-exports the stable entry points:
//
//   - Lookup / Protocol: the registry of the modeled storage systems
//     (the Table 1 systems, the §3.4 corner designs and the
//     "impossible" victim protocols the theorem refutes);
//   - RunTheorem: run the mechanical adversary of Theorem 1 against any
//     protocol — it either names the property the protocol sacrifices or
//     constructs a causal-consistency-violating execution;
//   - Deploy: build a simulated deployment for custom experiments.
//
// Table 1, the §3.4 corners, Theorem 2 and the proof's figures are
// printed by cmd/table1, cmd/impossibility and cmd/constructions. See
// DESIGN.md for the layer architecture and system inventory and
// EXPERIMENTS.md for how to run the experiments and benchmarks.
package repro

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocol"
)

// Protocol is a modeled storage system.
type Protocol = protocol.Protocol

// Deployment is a protocol instantiated on a simulated kernel.
type Deployment = protocol.Deployment

// Config parameterizes a deployment.
type Config = protocol.Config

// Verdict is the outcome of the theorem adversary.
type Verdict = adversary.Verdict

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

// RunTheorem runs the adversary of Theorem 1 against the named protocol.
func RunTheorem(name string) (*Verdict, error) {
	p, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return adversary.NewAttack(p).Run()
}
