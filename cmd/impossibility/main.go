// Command impossibility runs the mechanical adversary of Theorem 1 (and,
// with -partial, Theorem 2) against one or all protocols (experiments E4
// and E5). For each protocol it prints the verdict: which of the four
// properties {W, O, V, N} the protocol sacrifices, or — for designs that
// claim all four — the constructed execution γ/δ whose mixed read violates
// Lemma 1, together with the induction prefixes α_k and the messages ms_k.
// With -trace it renders that execution (Figure 3).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// errUsage marks a refused command line: main exits 2 on it, as the flag
// package does, and 1 on a run that fails.
var errUsage = errors.New("usage")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impossibility", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("protocol", "", "protocol to attack (default: all)")
	partial := fs.Bool("partial", false, "use the Theorem 2 system: m servers, partial replication")
	servers := fs.Int("servers", 3, "server count for -partial, at least 3")
	showTrace := fs.Bool("trace", false, "render the contradiction execution (Figure 3)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	serversSet := false
	fs.Visit(func(f *flag.Flag) { serversSet = serversSet || f.Name == "servers" })
	switch {
	case serversSet && !*partial:
		return fmt.Errorf("%w: -servers applies only with -partial", errUsage)
	case *partial && *servers < 3:
		return fmt.Errorf("%w: -partial needs -servers ≥ 3, got %d: on fewer, two replicas per object put every object on every server", errUsage, *servers)
	}

	names := core.Names()
	if *name != "" {
		names = []string{*name}
	}
	for _, n := range names {
		p := core.ByName(n)
		if p == nil {
			return fmt.Errorf("unknown protocol %q", n)
		}
		a := adversary.NewAttack(p)
		if *partial {
			a.Cfg = protocol.Config{
				Servers: *servers, ObjectsPerServer: 1, Replication: 2,
				Clients: 2, Readers: 8, Seed: 101,
			}
		}
		v, err := a.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		fmt.Fprintln(stdout, v)
		if *showTrace && len(a.LastContradictionTrace) > 0 {
			fmt.Fprintln(stdout, "\ncontradiction execution (γ/δ):")
			fmt.Fprint(stdout, trace.Render(a.LastContradictionTrace, nil))
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "impossibility:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}
