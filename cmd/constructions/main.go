// Command constructions replays the proof's Figure 1 (the setup
// executions Q_in → Q_0 → C_0) and Figure 2 (Constructions 1 and 2: γ_old
// returns the initial values, γ_new the new ones), then prints Table 2's
// symbols (experiments E2, E3). Figure 3's contradiction execution is
// `impossibility -protocol naivefast -trace`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/adversary"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/copssnow"
	"repro/internal/protocols/naivefast"
	"repro/internal/sim"
	"repro/internal/trace"
)

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("constructions", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fig1, err := adversary.SetupC0(copssnow.New(), protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 11})
	if err != nil {
		return fmt.Errorf("figure 1: %w", err)
	}
	fig2, err := adversary.SetupC0(naivefast.New(), protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 13})
	if err != nil {
		return fmt.Errorf("figure 2: %w", err)
	}
	fmt.Fprintln(stdout, "Figure 1: Q_in -> Q_0 (initializing writes) -> C_0 (c_w reads the initial values)")
	fmt.Fprint(stdout, trace.Render(fig1.Kernel.Trace().Events, []sim.ProcessID{"cin0", "cin1", "c0", "s0", "s1"}))
	fmt.Fprintln(stdout, "\n"+trace.Summarize(fig1.Kernel.Trace().Events))
	fmt.Fprintln(stdout)
	figure2(stdout, fig2)
	fmt.Fprint(stdout, "\n"+symbols)
	return nil
}

func figure2(w io.Writer, d *protocol.Deployment) {
	fmt.Fprintln(w, "Figure 2: Constructions 1 and 2 (probe schedules σ_old / σ_new)")
	// Construction 1 from C0: Tw not yet started — the reader returns the
	// initial values regardless of the server order.
	for _, order := range d.ProbeOrders([]string{"X0", "X1"}) {
		res := d.Probe("r0", []string{"X0", "X1"}, order)
		fmt.Fprintf(w, "  γ_old with order %v: %v\n", order, reads(res))
	}
	// Run Tw to visibility, then Construction 2 returns the new values.
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "new_X0"}, model.Write{Object: "X1", Value: "new_X1"}))
	d.Settle(400_000)
	for _, order := range d.ProbeOrders([]string{"X0", "X1"}) {
		res := d.Probe("r1", []string{"X0", "X1"}, order)
		fmt.Fprintf(w, "  γ_new with order %v: %v\n", order, reads(res))
	}
}

// reads keys what res read by object, so it prints as object:value pairs.
func reads(res *model.Result) map[string]model.Value {
	m := make(map[string]model.Value, len(res.Txn.ReadSet))
	for _, obj := range res.Txn.ReadSet {
		m[obj] = res.Value(obj)
	}
	return m
}

// symbols is Table 2: the paper's symbols and what implements them.
const symbols = `Table 2: symbols (paper ↔ implementation)
  X_i                        object i (X0 stored at s0, X1 at s1)
  x_in_i                     initial value of X_i, written by T_in_i (client cin_i)
  p_i / s_i                  server storing X_i
  c_w                        client that reads the initial values and then runs Tw (client c0)
  Tw                         write-only transaction writing new values to all objects
  T_r                        read-only transaction of the reader client c_r (clients r0, r1, ...)
  Q_in, Q_0, C_0             initial / values-visible / setup-complete configurations (Figure 1)
  σ_old, γ_old               Construction 1: the schedule in which the reader sees the initial values
  σ_new, γ_new               Construction 2: the schedule in which the reader sees the new values
  β, β'_p, β_p, β_s, β_new   the solo execution reaching visibility and its filtered variants (Figure 3a)
  γ, δ                       the contradiction executions of Lemma 3 claims 1 and 2 (Figure 3b)
  α_k, ms_k, C_k             induction prefixes, the messages that cut them, and the resulting configurations
`

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "constructions:", err)
		os.Exit(1)
	}
}
