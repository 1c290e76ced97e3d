// Command perf is this repository's benchmark: one command that prints
// every metric by name with its unit and verifies the outputs are
// correct.
//
// It is two programs in one directory. This one, the runner, imports
// nothing under repro/internal: it builds cmd/bench, cmd/table1 and
// cmd/impossibility once and measures end to end by running them as
// child processes, one at a time, with tracing off by construction (wall
// clock and rusage per child), through flags ROADMAP keeps. The other,
// the tracer (cmd/perf/layers, behind the benchtrace build tag), runs the
// same cells in-process under spans and derives the per-layer metrics;
// when it stops compiling the runner says "layers: unavailable" and still
// reports end to end.
//
//	go run ./cmd/perf -seed 42                   # four workloads + per-layer block
//	go run ./cmd/perf -seed 42 -out set.json     # ... and keep the set
//	go run ./cmd/perf -workload cert-ride -seed 7 -seconds 20 -trace 0
//	go run ./cmd/perf -workload cert-ride -seed 7 -trace 1 -spans spans.json
//	go run ./cmd/perf -compare set1.json set2.json
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics under
// -trace 0, the per-layer metrics under -trace 1. All numbers are host
// time except names containing virt_ and counts, which are simulated and
// exact for a seed. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/cmd/perf/ledger"
)

func main() {
	workload := flag.String("workload", "", "run one workload (load-reads, load-writes, cert-ride, open-geo-faults); default all four plus the traced per-layer block")
	seed := flag.Int64("seed", 42, "workload seed, passed to every child as its -seed (cert-ride derives its sub-seeds from it)")
	seconds := flag.Float64("seconds", 34, "measured length per workload: reps = round(seconds / nominal rep size), at least 1")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics (children, tracing off), 1 = per-layer metrics (in-process tracer)")
	spans := flag.String("spans", "", "traced runs: write all spans and their counts to this file at exit")
	out := flag.String("out", "", "write the full set (every metric with n/q1/q3, digests, environment) to this file")
	compare := flag.Bool("compare", false, "compare two sets written with -out: perf -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two set files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1 (the span file is -spans)"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	w := min(2, runtime.NumCPU())
	if w > runtime.GOMAXPROCS(0) {
		fatal(fmt.Errorf("W=%d workers exceed GOMAXPROCS=%d: a pool wider than the cores it may use measures the scheduler, not the harness", w, runtime.GOMAXPROCS(0)))
	}
	r, err := newRunner(w, *seed)
	if err != nil {
		fatal(err)
	}

	if *workload != "" {
		wl, err := ledger.WorkloadByName(*workload, w)
		if err != nil {
			fatal(err)
		}
		var res ledger.Result
		if *trace == 1 {
			res, err = r.traceOne(wl, *spans)
		} else {
			res, err = r.measureOne(wl, *seconds)
		}
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	set, ok, err := r.measureAll(*seconds, *spans)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if !ok {
		fmt.Println("perf: FAILED — see the checks above")
		os.Exit(1)
	}
	fmt.Println("perf: every check green")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", strings.TrimSpace(err.Error()))
	os.Exit(2)
}
