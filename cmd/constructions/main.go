// Command constructions replays the proof's figures (experiments E2, E3,
// E8):
//
//	-fig 1   the setup executions Q_in → Q_0 → C_0 (Figure 1)
//	-fig 2   Constructions 1 and 2: γ_old returns the initial values,
//	         γ_new returns the new values (Figure 2)
//	-fig 3   the contradiction execution γ = σ_old·β_new·σ_new against
//	         naivefast (Figure 3)
//	-symbols the symbol glossary (Table 2)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/adversary"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/protocols/copssnow"
	"repro/internal/protocols/naivefast"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	fig := flag.Int("fig", 1, "figure to reproduce (1, 2 or 3)")
	symbols := flag.Bool("symbols", false, "print the Table 2 symbol glossary")
	flag.Parse()

	if *symbols {
		printSymbols()
		return
	}
	switch *fig {
	case 1:
		figure1()
	case 2:
		figure2()
	case 3:
		figure3()
	default:
		fmt.Fprintln(os.Stderr, "unknown figure", *fig)
		os.Exit(1)
	}
}

func figure1() {
	fmt.Println("Figure 1: Q_in -> Q_0 (initializing writes) -> C_0 (c_w reads the initial values)")
	d, err := adversary.SetupC0(copssnow.New(), protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 11})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(trace.Render(d.Kernel.Trace().Events, []sim.ProcessID{"cin0", "cin1", "c0", "s0", "s1"}))
	fmt.Println("\n" + trace.Summarize(d.Kernel.Trace().Events))
}

func figure2() {
	fmt.Println("Figure 2: Constructions 1 and 2 (probe schedules σ_old / σ_new)")
	d, err := adversary.SetupC0(naivefast.New(), protocol.Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 13})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Construction 1 from C0: Tw not yet started — the reader returns the
	// initial values regardless of the server order.
	for _, order := range d.ProbeOrders([]string{"X0", "X1"}) {
		res := d.Probe("r0", []string{"X0", "X1"}, order)
		fmt.Printf("  γ_old with order %v: %v\n", order, reads(res))
	}
	// Run Tw to visibility, then Construction 2 returns the new values.
	d.Invoke("c0", model.NewWriteOnly(model.TxnID{},
		model.Write{Object: "X0", Value: "new_X0"}, model.Write{Object: "X1", Value: "new_X1"}))
	d.Settle(400_000)
	for _, order := range d.ProbeOrders([]string{"X0", "X1"}) {
		res := d.Probe("r1", []string{"X0", "X1"}, order)
		fmt.Printf("  γ_new with order %v: %v\n", order, reads(res))
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

func figure3() {
	fmt.Println("Figure 3: executions β, β_new = β_p·β_s and the contradiction γ against naivefast")
	a := adversary.NewAttack(naivefast.New())
	v, err := a.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(v)
	fmt.Println()
	fmt.Print(trace.Render(a.LastContradictionTrace, nil))
}

func printSymbols() {
	rows := [][2]string{
		{"X_i", "object i (X0 stored at s0, X1 at s1)"},
		{"x_in_i", "initial value of X_i, written by T_in_i (client cin_i)"},
		{"p_i / s_i", "server storing X_i"},
		{"c_w", "client that reads the initial values and then runs Tw (client c0)"},
		{"Tw", "write-only transaction writing new values to all objects"},
		{"T_r", "read-only transaction of the reader client c_r (clients r0, r1, ...)"},
		{"Q_in, Q_0, C_0", "initial / values-visible / setup-complete configurations (Figure 1)"},
		{"σ_old, γ_old", "Construction 1: the schedule in which the reader sees the initial values"},
		{"σ_new, γ_new", "Construction 2: the schedule in which the reader sees the new values"},
		{"β, β'_p, β_p, β_s, β_new", "the solo execution reaching visibility and its filtered variants (Figure 3a)"},
		{"γ, δ", "the contradiction executions of Lemma 3 claims 1 and 2 (Figure 3b)"},
		{"α_k, ms_k, C_k", "induction prefixes, the messages that cut them, and the resulting configurations"},
	}
	fmt.Println("Table 2: symbols (paper ↔ implementation)")
	for _, r := range rows {
		fmt.Printf("  %-26s %s\n", r[0], r[1])
	}
}
