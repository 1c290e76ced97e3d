// Package ledger holds what the benchmark's two programs share: the
// workload plan (which cmd/bench cells each workload runs, and why), the
// metric names and bounds, order statistics, and span arithmetic. It
// imports only the standard library, so the runner (cmd/perf) keeps
// building through any refactor of repro/internal; only the tracer
// (cmd/perf/layers) touches those packages.
package ledger

import (
	"fmt"
	"strconv"
	"strings"
)

// Command is one cmd/bench child process. Every protocol it names is one
// cell (one JSON row; one row per fraction under Curve). Only flags
// ROADMAP keeps are expressible: Workers is always ≥ 1 and there is no
// barrier switch.
type Command struct {
	// Tag prefixes the cell name: cell = Tag + "." + protocol, except
	// when Cell names the single cell outright.
	Tag  string
	Cell string

	Protocols []string
	Mix       string
	Servers   int
	Clients   int
	Txns      int
	Objects   int // objects per server; 0 = cmd/bench default (2)
	Workers   int

	Certify   bool
	Stale     bool
	Curve     bool   // open loop: Clients receives Poisson arrivals at each of Fractions
	Fractions string // csv, curve only
	Topology  string // "" = uniform
	Nemesis   string // "" = fault-free

	// Once runs the command under the first sub-seed only (workloads
	// with SubSeeds > 1): a cell that is there for its verdict, not for
	// its cost, should not add its own seed-to-seed variance to the rep.
	Once bool
}

// Label names the command itself, for messages about its whole output.
func (c Command) Label() string { return c.Tag + c.Cell }

// CellName names the cell of protocol p within this command.
func (c Command) CellName(p string) string {
	if c.Cell != "" {
		return c.Cell
	}
	return c.Tag + "." + p
}

// Args renders the cmd/bench command line for one seed.
func (c Command) Args(seed int64) []string {
	a := []string{
		"-protocols", strings.Join(c.Protocols, ","),
		"-mixes", c.Mix,
		"-servers", strconv.Itoa(c.Servers),
		"-txns", strconv.Itoa(c.Txns),
		"-workers", strconv.Itoa(c.Workers),
		"-seed", strconv.FormatInt(seed, 10),
	}
	if c.Curve {
		a = append(a, "-curve", "-curveclients", strconv.Itoa(c.Clients), "-fractions", c.Fractions)
	} else {
		a = append(a, "-clients", strconv.Itoa(c.Clients))
	}
	if c.Objects > 0 {
		a = append(a, "-objects", strconv.Itoa(c.Objects))
	}
	if c.Certify {
		a = append(a, "-certify")
	}
	if c.Stale {
		a = append(a, "-stale")
	}
	if c.Topology != "" {
		a = append(a, "-topology", c.Topology)
	}
	if c.Nemesis != "" {
		a = append(a, "-nemesis", c.Nemesis)
	}
	return a
}

// Rows is the number of JSON rows the command prints.
func (c Command) Rows() int {
	n := len(c.Protocols)
	if c.Curve {
		n *= strings.Count(c.Fractions, ",") + 1
	}
	return n
}

// Workload is one set of inputs the benchmark runs. One rep executes
// Commands in order, once per seed of Seeds.
type Workload struct {
	Name string
	Why  string // one sentence: why this workload exists
	Loop string // closed or open loop, with its client count
	// NominalRepS is the measured wall-clock of one rep at the commit
	// that defined the benchmark (2 cores). The rep count of a run is
	// round(seconds ÷ NominalRepS), at least 1, so it is a function of
	// the arguments only and two commits always do the same work.
	NominalRepS float64
	// SubSeeds > 1 repeats Commands under that many seeds derived from
	// the run seed (see Seeds).
	SubSeeds int
	Commands []Command
	// Traced replaces Commands for the in-process traced rep when the
	// per-layer question needs other sizes than the end-to-end one
	// (cert-ride); nil means the tracer runs Commands.
	Traced []Command
}

// Seeds lists the cmd/bench seeds of one rep. A single-seed workload
// passes the run seed through unchanged.
func (w Workload) Seeds(seed int64) []int64 {
	if w.SubSeeds <= 1 {
		return []int64{seed}
	}
	out := make([]int64, w.SubSeeds)
	for k := range out {
		out[k] = seed*1000 + int64(k)
	}
	return out
}

// Reps is the rep count for a run of the given length.
func (w Workload) Reps(seconds float64) int {
	n := int(seconds/w.NominalRepS + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// TracedCommands is what the tracer runs in-process for this workload.
func (w Workload) TracedCommands() []Command {
	if w.Traced != nil {
		return w.Traced
	}
	return w.Commands
}

// Warmup is the discarded cell every set-up runs before the first
// measured rep. Set-up repeats it at alternating worker counts and the
// gate requires the outputs byte-identical, which is the
// workers-1-vs-W identity check on a small load-reads cell.
func Warmup(workers int) Command {
	return Command{Tag: "warmup", Protocols: []string{"cops"}, Mix: "readheavy",
		Servers: 8, Clients: 64, Txns: 20000, Workers: workers}
}

var loadProtocols = []string{"cops", "cure", "spanner"}

func certCell(cell, proto, mix string, clients, txns int) Command {
	return Command{Cell: cell, Protocols: []string{proto}, Mix: mix,
		Servers: 4, Clients: clients, Txns: txns, Workers: 1, Certify: true}
}

// naivefastCell must violate on every seed, so it is sized for that: at
// 2 servers and 64 clients the first offending commit fell between 160
// and 789 over 40 seeds (at 4 servers and 16 clients it reached 1500 of
// 2000, close enough to miss on some seed). The session stops at the
// violation, so the cell stays cheap; how early that is varies several-fold
// with the seed, so the cell runs once per rep, not once per sub-seed.
var naivefastCell = Command{Cell: "cert.naivefast", Protocols: []string{"naivefast"}, Mix: "readheavy",
	Servers: 2, Clients: 64, Txns: 2000, Workers: 1, Certify: true, Once: true}

// Workloads is the benchmark's plan. w is min(2, nproc): the one worker
// count above 1 the pool is measured at.
func Workloads(w int) []Workload {
	return []Workload{
		{
			Name: "load-reads",
			Why: "Uncertified read-heavy cells on the default keyspace: sim stepping, per-event allocation and GC do the work, " +
				"history none; the only workload on the worker pool.",
			Loop:        "closed, 64 clients",
			NominalRepS: 8.4,
			Commands: []Command{{Tag: "reads", Protocols: loadProtocols, Mix: "readheavy",
				Servers: 8, Clients: 64, Txns: 150000, Workers: w}},
		},
		{
			Name: "load-writes",
			Why: "Same protocols and engine with writes beside reads over 512 objects at workers 1: protocol metadata, " +
				"store version chains and heap growth dominate, sim is a minority.",
			Loop:        "closed, 64 clients",
			NominalRepS: 9.4,
			Commands: []Command{{Tag: "writes", Protocols: loadProtocols, Mix: "balanced", Objects: 64,
				Servers: 8, Clients: 64, Txns: 40000, Workers: 1}},
		},
		{
			Name: "cert-ride",
			Why: "Ride-along certification: history.Session does nearly all the work and sim almost none; causal reads, " +
				"causal writes and strict-serializable cells side by side, naivefast must violate.",
			Loop:        "closed, 8-16 clients",
			NominalRepS: 18.5,
			SubSeeds:    16,
			Commands: []Command{
				certCell("cert.cops-reads", "cops", "readheavy", 16, 1000),
				certCell("cert.cops-writes", "cops", "balanced", 8, 500),
				certCell("cert.spanner-reads", "spanner", "readheavy", 8, 750),
				naivefastCell,
			},
			Traced: []Command{
				certCell("cert.cops-reads", "cops", "readheavy", 16, 2000),
				certCell("cert.cops-writes", "cops", "balanced", 8, 1000),
				certCell("cert.spanner-reads", "spanner", "readheavy", 8, 1500),
				naivefastCell,
			},
		},
		{
			Name: "open-geo-faults",
			Why: "The non-uniform uses of sim and driver: horizon-bounded open-loop injection, per-link lookahead floors " +
				"on a 2-site topology, engine segments broken by faults with snapshot-cloning staleness probes.",
			Loop:        "open (Poisson, 32 clients), then closed 64, then closed 32",
			NominalRepS: 9.5,
			Commands: []Command{
				{Tag: "curve", Protocols: []string{"cops", "spanner"}, Mix: "readheavy", Curve: true,
					Servers: 4, Clients: 32, Txns: 20000, Workers: 1, Fractions: "0.25,0.5,0.9,1.1"},
				{Tag: "2site", Protocols: []string{"cops", "cure"}, Mix: "readheavy", Topology: "2site",
					Servers: 8, Clients: 64, Txns: 100000, Workers: w},
				{Tag: "nem", Protocols: []string{"cops", "spanner"}, Mix: "readheavy", Nemesis: "crash+partition", Stale: true,
					Servers: 4, Clients: 32, Txns: 50000, Workers: 1},
			},
		},
	}
}

// WorkloadByName finds a workload of the plan.
func WorkloadByName(name string, w int) (Workload, error) {
	var names []string
	for _, wl := range Workloads(w) {
		if wl.Name == name {
			return wl, nil
		}
		names = append(names, wl.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
