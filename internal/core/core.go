// Package core is the top-level harness of the reproduction: it ties the
// protocol models, the property measurements (Definition 4), the
// consistency checkers (Definition 1) and the adversary (Theorem 1/2)
// together, regenerating the paper's Table 1 from measured behaviour and
// producing a theorem verdict for every protocol.
//
// It is also the measurement front door for the load story: closed-loop
// throughput cells (MeasureThroughputWith) and open-loop
// latency–throughput curves (MeasureLoadCurve). What a cell is — its
// deployment, load regime, stepping pool, faults — is said once, by
// driver.Config; core adds only certification: with Certify, committed
// transactions feed an incremental history.Session during the run and
// the recorded history is re-solved by the batch checker, so every
// published number is backed by two independently agreeing consistency
// verdicts.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/adversary"
	"repro/internal/protocol"
	"repro/internal/protocols/contrarian"
	"repro/internal/protocols/cops"
	"repro/internal/protocols/copssnow"
	"repro/internal/protocols/cure"
	"repro/internal/protocols/eiger"
	"repro/internal/protocols/eigerps"
	"repro/internal/protocols/fatcops"
	"repro/internal/protocols/gentlerain"
	"repro/internal/protocols/naivefast"
	"repro/internal/protocols/orbe"
	"repro/internal/protocols/ramp"
	"repro/internal/protocols/spanner"
	"repro/internal/protocols/twopcfast"
	"repro/internal/protocols/wren"
	"repro/internal/spec"
)

// All returns every modeled protocol, sorted by name.
func All() []protocol.Protocol {
	ps := []protocol.Protocol{
		contrarian.New(), cops.New(), copssnow.New(), cure.New(),
		eiger.New(), eigerps.New(), fatcops.New(), gentlerain.New(), naivefast.New(),
		orbe.New(), ramp.New(), spanner.New(), twopcfast.New(), wren.New(),
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name() < ps[j].Name() })
	return ps
}

// ByName returns the protocol with the given name, or nil.
func ByName(name string) protocol.Protocol {
	for _, p := range All() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

// Names returns all protocol names.
func Names() []string {
	var out []string
	for _, p := range All() {
		out = append(out, p.Name())
	}
	return out
}

// Row is one measured Table 1 row plus the theorem verdict.
type Row struct {
	Profile spec.Profile
	Verdict *adversary.Verdict
}

// Characterize builds the Table 1 row for one protocol: measured R/V/N/W,
// consistency checks on randomized workloads, and the adversary's verdict.
func Characterize(p protocol.Protocol, seeds []int64) (Row, error) {
	cfg := protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 7}
	prof, err := spec.BuildProfile(p, cfg, seeds)
	if err != nil {
		return Row{}, fmt.Errorf("core: profiling %s: %w", p.Name(), err)
	}
	v, err := adversary.NewAttack(p).Run()
	if err != nil {
		return Row{}, fmt.Errorf("core: attacking %s: %w", p.Name(), err)
	}
	return Row{Profile: prof, Verdict: v}, nil
}

// Table1 characterizes every protocol.
func Table1(seeds []int64) ([]Row, error) {
	var rows []Row
	for _, p := range All() {
		row, err := Characterize(p, seeds)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders rows in the layout of the paper's Table 1, with the
// measured values and the theorem verdict appended.
func FormatTable1(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s | %8s | %8s | %3s | %3s | %-20s | %-12s | %s\n",
		"System", "R(meas.)", "V(meas.)", "N", "WTX", "Consistency(claimed)", "causal-check", "theorem verdict")
	b.WriteString(strings.Repeat("-", 112) + "\n")
	for _, r := range rows {
		n := "yes"
		if !r.Profile.NonBlocking {
			n = "no"
		}
		w := "yes"
		if !r.Profile.MultiWrite {
			w = "no"
		}
		vCol := fmt.Sprintf("%d", r.Profile.ValuesPerObject)
		if r.Profile.ForeignValues {
			vCol += "+f"
		}
		check := "ok"
		if !r.Profile.CausalOK {
			check = "VIOLATED"
		}
		fmt.Fprintf(&b, "%-12s | %8d | %8s | %3s | %3s | %-20s | %-12s | sacrifices %s\n",
			r.Profile.Protocol, r.Profile.ROTRounds, vCol, n, w,
			r.Profile.Claims.Consistency, check, r.Verdict.Sacrifices)
	}
	return b.String()
}

// PaperRows returns the paper's claimed Table 1 rows for the systems we
// model, for side-by-side comparison in EXPERIMENTS.md.
func PaperRows() map[string]string {
	return map[string]string{
		"cops":       "R≤2 V≤2 N=yes WTX=no  causal",
		"copssnow":   "R=1 V=1 N=yes WTX=no  causal (the only fast ROT system in the paper's model)",
		"orbe":       "R=2 V=1 N=no  WTX=no  causal",
		"gentlerain": "R=2 V=1 N=no  WTX=no  causal",
		"contrarian": "R=2 V=1 N=yes WTX=no  causal",
		"eiger":      "R≤3 V≤2 N=yes WTX=yes causal",
		"eigerps":    "Eiger-PS†/SwiftCloud†: R=1 V=1 N=yes WTX=yes — but relies on a system model the paper excludes; in-model it violates minimal progress",
		"wren":       "R=2 V=1 N=yes WTX=yes causal",
		"cure":       "R=2 V=1 N=no  WTX=yes causal",
		"ramp":       "R≤2 V≤2 N=yes WTX=yes read atomicity",
		"spanner":    "R=1 V=1 N=no  WTX=yes strict serializability",
		"naivefast":  "(not in the paper: the impossible design Theorem 1 refutes)",
		"twopcfast":  "(not in the paper: second impossible design, needs the Lemma 3 induction)",
		"fatcops":    "(§3.4 N+R+W sketch: COPS with fat metadata)",
	}
}
