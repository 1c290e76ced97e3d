package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/cmd/perf/ledger"
)

// buildDir is where everything the benchmark builds lands, inside the
// checkout (the root .gitignore names it).
const buildDir = ".bench_build"

// setupPasses is how often a run sets up; setup_s is the median, so the
// one cold build of a fresh checkout does not read as the set-up time.
const setupPasses = 5

// environment is recorded with every set so a noisy or foreign one is
// recognisable afterwards.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Workers    int     `json:"workers"`
	LoadAvg1   float64 `json:"loadavg_1min_at_start"`
}

// workloadSet is one workload's share of a set.
type workloadSet struct {
	Name      string                    `json:"name"`
	Reps      int                       `json:"reps"`
	Digest    string                    `json:"digest"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Problems  []string                  `json:"problems,omitempty"`
	Metrics   map[string]ledger.Summary `json:"metrics"`
}

// set is what -out writes and -compare reads.
type set struct {
	Env       environment             `json:"env"`
	Workloads []workloadSet           `json:"workloads"`
	Layers    map[string]ledger.Value `json:"layers,omitempty"`
}

type runner struct {
	w    int
	seed int64
	root string
	bin  string
	env  []string // child environment for go build
	info environment

	setupS   []float64 // one per set-up pass
	problems []string  // set-up and paper-artefact checks, shared by every workload of the run
}

func newRunner(w int, seed int64) (*runner, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "bench")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	build := filepath.Join(root, buildDir, "perf")
	r := &runner{w: w, seed: seed, root: root, bin: filepath.Join(build, "bin")}
	// The build cache lives in the checkout too: the benchmark writes
	// nowhere else.
	r.env = append(os.Environ(), "GOCACHE="+filepath.Join(build, "gocache"), "GOFLAGS=-buildvcs=false")
	r.info = environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(root), Seed: seed, Workers: w, LoadAvg1: loadAvg1()}
	return r, nil
}

func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil || len(bytes.Fields(data)) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(string(bytes.Fields(data)[0]), 64)
	if err != nil {
		return -1
	}
	return v
}

// child is one finished child process.
type child struct {
	wall, cpu float64 // seconds
	rssMB     float64
	out       []byte
}

// run executes one child to completion and measures it from outside:
// wall clock around the process, CPU and peak RSS from its rusage.
func (r *runner) run(env []string, name string, args ...string) (child, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = r.root
	cmd.Env = env
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(start).Seconds(), out: stdout.Bytes()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
			c.cpu = tv(ru.Utime) + tv(ru.Stime)
			c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
		}
	}
	if err != nil {
		return c, fmt.Errorf("%s %s: %w\n%s", filepath.Base(name), strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return c, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func (r *runner) bench(cmd ledger.Command, seed int64) (child, error) {
	return r.run(nil, filepath.Join(r.bin, "bench"), cmd.Args(seed)...)
}

// setupOnce is one set-up pass: build the three binaries and run the
// discarded warm-up cell (command lines are generated as they are used).
func (r *runner) setupOnce(workers int) (float64, child, error) {
	start := time.Now()
	if _, err := r.run(r.env, "go", "build", "-o", r.bin+string(filepath.Separator),
		"./cmd/bench", "./cmd/table1", "./cmd/impossibility"); err != nil {
		return 0, child{}, err
	}
	warm, err := r.bench(ledger.Warmup(workers), r.seed)
	return time.Since(start).Seconds(), warm, err
}

// setup runs the set-up passes and the checks that belong to the run
// rather than to a workload: the warm-up cell must print the same bytes
// at workers 1 and W, cmd/table1 must exit 0, and cmd/impossibility must
// name exactly the theorem's three victims.
func (r *runner) setup(passes int) error {
	var first []byte
	for i := 0; i < passes; i++ {
		workers := 1
		if i%2 == 1 {
			workers = r.w
		}
		s, warm, err := r.setupOnce(workers)
		if err != nil {
			return err
		}
		r.setupS = append(r.setupS, s)
		if t := checkRows(ledger.Warmup(workers), warm.out); len(t.problems) > 0 {
			r.problems = append(r.problems, t.problems...)
		}
		if i == 0 {
			first = warm.out
		} else if !bytes.Equal(first, warm.out) {
			r.problems = append(r.problems, fmt.Sprintf("warm-up cell at -workers %d differs from -workers 1: byte identity across worker counts is broken", workers))
		}
	}
	if _, err := r.run(nil, filepath.Join(r.bin, "table1")); err != nil {
		r.problems = append(r.problems, "table1: "+err.Error())
	}
	imp, err := r.run(nil, filepath.Join(r.bin, "impossibility"))
	if err != nil {
		r.problems = append(r.problems, "impossibility: "+err.Error())
	} else {
		r.problems = append(r.problems, checkImpossibility(imp.out)...)
	}
	return nil
}

// rep is one measured repetition of a workload.
type rep struct {
	wall, cpu, rssMB float64
	tally            rowTally
	digest           string
}

func (r *runner) rep(wl ledger.Workload) (rep, error) {
	var p rep
	h := sha256.New()
	rss := make([][]float64, len(wl.Commands)) // per command, one peak per seed
	for k, s := range wl.Seeds(r.seed) {
		for i, cmd := range wl.Commands {
			if cmd.Once && k > 0 {
				continue
			}
			c, err := r.bench(cmd, s)
			if err != nil {
				return p, err
			}
			p.wall += c.wall
			p.cpu += c.cpu
			rss[i] = append(rss[i], c.rssMB)
			t := checkRows(cmd, c.out)
			p.tally.attempted += t.attempted
			p.tally.failed += t.failed
			p.tally.done += t.done
			p.tally.problems = append(p.tally.problems, t.problems...)
			h.Write(stripWall(c.out))
		}
	}
	// The hungriest command's peak. Where a command runs under several
	// sub-seeds its peak is their median: the largest of sixteen children
	// is an extreme value and moves by a quarter between seeds.
	for _, peaks := range rss {
		p.rssMB = max(p.rssMB, ledger.Median(peaks))
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// measure runs the reps of one workload (set-up must have run) and
// reduces them to the end-to-end metrics.
func (r *runner) measure(wl ledger.Workload, seconds float64) (workloadSet, error) {
	n := wl.Reps(seconds)
	ws := workloadSet{Name: wl.Name, Reps: n, Problems: append([]string(nil), r.problems...)}
	samples := map[string][]float64{}
	for i := 0; i < n; i++ {
		p, err := r.rep(wl)
		if err != nil {
			return ws, err
		}
		samples["wall_s"] = append(samples["wall_s"], p.wall)
		samples["txns_per_s"] = append(samples["txns_per_s"], float64(p.tally.done)/p.wall)
		samples["cpu_s"] = append(samples["cpu_s"], p.cpu)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], p.rssMB)
		ws.Attempted += p.tally.attempted
		ws.Failed += p.tally.failed
		ws.Problems = append(ws.Problems, p.tally.problems...)
		if i == 0 {
			ws.Digest = p.digest
		} else if p.digest != ws.Digest {
			ws.Problems = append(ws.Problems, fmt.Sprintf("rep %d digest %s differs from rep 1: same flags and seed must print the same bytes", i+1, p.digest[:12]))
		}
	}
	samples["setup_s"] = r.setupS
	ws.Metrics = map[string]ledger.Summary{}
	for _, m := range ledger.EndToEnd {
		ws.Metrics[m.Name] = ledger.Summarize(m.Unit, samples[m.Name])
	}
	// A failed check that no single row owns taints the whole workload.
	if len(ws.Problems) > 0 && ws.Failed == 0 {
		ws.Failed = ws.Attempted
	}
	return ws, nil
}

func (ws workloadSet) print() {
	fmt.Printf("\nworkload %s: %d rep(s)\n", ws.Name, ws.Reps)
	for _, m := range ledger.EndToEnd {
		s := ws.Metrics[m.Name]
		fmt.Printf("  %-12s %12.4f %-4s n=%d q1=%.4f q3=%.4f  (host, %s is better, bound %.0f%%)\n",
			m.Name, s.Median, s.Unit, s.N, s.Q1, s.Q3, m.Better, m.Bound*100)
	}
	fmt.Printf("  %-12s %12.6f ratio (%d failed of %d attempted)\n", "failed_frac",
		float64(ws.Failed)/float64(max(ws.Attempted, 1)), ws.Failed, ws.Attempted)
	fmt.Printf("  digest       sha256:%s\n", ws.Digest)
	fmt.Println("  open-loop generator lateness: 0 by construction (arrivals are virtual-time instants; latency is timed from the scheduled arrival)")
	if len(ws.Problems) == 0 {
		fmt.Println("  checks       all green: rows complete, reps byte-identical, workers 1 = W, verdicts as the theorem says")
	}
	for _, p := range ws.Problems {
		fmt.Println("  CHECK FAILED", p)
	}
}

func (ws workloadSet) result() ledger.Result {
	res := ledger.Result{Correct: len(ws.Problems) == 0 && ws.Failed == 0, Attempted: ws.Attempted, Failed: ws.Failed,
		Metrics: map[string]ledger.Value{}}
	for name, s := range ws.Metrics {
		res.Metrics[name] = ledger.Value{Value: s.Median, Unit: s.Unit}
	}
	return res
}

// measureOne is a single-workload end-to-end run.
func (r *runner) measureOne(wl ledger.Workload, seconds float64) (ledger.Result, error) {
	r.info.Seconds = seconds
	if err := r.setup(setupPasses); err != nil {
		return ledger.Result{}, err
	}
	ws, err := r.measure(wl, seconds)
	if err != nil {
		return ledger.Result{}, err
	}
	ws.print()
	return ws.result(), nil
}

// traceWorkload builds the tracer and runs one workload under it. A
// tracer that no longer compiles is reported, not fatal: the end-to-end
// numbers do not depend on it.
func (r *runner) traceWorkload(wl ledger.Workload, spans string) (ledger.TraceResult, error) {
	var lo ledger.TraceResult
	tracer := filepath.Join(r.bin, "layers")
	if _, err := r.run(r.env, "go", "build", "-tags", "benchtrace", "-o", tracer, "./cmd/perf/layers"); err != nil {
		return lo, fmt.Errorf("layers: unavailable (%w)", err)
	}
	args := []string{"-workload", wl.Name, "-seed", strconv.FormatInt(r.seed, 10), "-workers", strconv.Itoa(r.w),
		"-bench", filepath.Join(r.bin, "bench")}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	c, err := r.run(nil, tracer, args...)
	if err != nil {
		return lo, fmt.Errorf("layers: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(c.out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &lo); err != nil {
		return lo, fmt.Errorf("layers: last line is not a result: %w", err)
	}
	for _, n := range lo.Notes {
		fmt.Println("  note:", n)
	}
	return lo, nil
}

// traceOne is a single-workload traced run: every per-layer metric by
// name, the ones another workload owns reading 0.
func (r *runner) traceOne(wl ledger.Workload, spans string) (ledger.Result, error) {
	if err := r.setup(1); err != nil {
		return ledger.Result{}, err
	}
	lo, err := r.traceWorkload(wl, spans)
	if err != nil {
		return ledger.Result{}, err
	}
	lo.Problems = append(lo.Problems, r.problems...)
	res := lo.Result
	res.Correct = res.Correct && len(lo.Problems) == 0
	metrics := map[string]ledger.Value{}
	for _, m := range ledger.PerLayer() {
		metrics[m.Name] = ledger.Value{Value: res.Metrics[m.Name].Value, Unit: m.Unit}
	}
	res.Metrics = metrics
	fmt.Printf("\nper-layer metrics, traced run of %s (host time unless virt_ or count; 0 = measured by another workload's traced run)\n", wl.Name)
	printLayers(metrics, wl.Name)
	for _, p := range lo.Problems {
		fmt.Println("  CHECK FAILED", p)
	}
	return res, nil
}

func printLayers(metrics map[string]ledger.Value, traced string) {
	for _, m := range ledger.PerLayer() {
		if traced != "" && m.Workload != "*" && m.Workload != traced {
			continue
		}
		fmt.Printf("  %-44s %14.4f %-6s -> %s\n", m.Name, metrics[m.Name].Value, m.Unit, m.Moves)
	}
}

// measureAll is the full set: four workloads end to end, then one traced
// run of each, merged into one per-layer block.
func (r *runner) measureAll(seconds float64, spans string) (set, bool, error) {
	r.info.Seconds = seconds
	s := set{Env: r.info}
	fmt.Printf("perf: seed %d, W=%d of %d cores, %s, commit %s, 1-min load %.2f\n",
		r.seed, r.w, r.info.NProc, r.info.Go, r.info.Commit, r.info.LoadAvg1)
	if err := r.setup(setupPasses); err != nil {
		return s, false, err
	}
	ok := true
	for _, wl := range ledger.Workloads(r.w) {
		ws, err := r.measure(wl, seconds)
		if err != nil {
			return s, false, err
		}
		ws.print()
		ok = ok && len(ws.Problems) == 0 && ws.Failed == 0
		s.Workloads = append(s.Workloads, ws)
	}

	traced := map[string]map[string]ledger.Value{} // workload -> its tracer's metrics
	for _, wl := range ledger.Workloads(r.w) {
		path := ""
		if spans != "" {
			path = strings.TrimSuffix(spans, ".json") + "." + wl.Name + ".json"
		}
		lo, err := r.traceWorkload(wl, path)
		if err != nil {
			fmt.Println("\n" + err.Error())
			return s, ok, nil
		}
		for _, p := range lo.Problems {
			fmt.Println("  CHECK FAILED (traced", wl.Name+")", p)
		}
		ok = ok && lo.Correct
		traced[wl.Name] = lo.Metrics
	}
	s.Layers = map[string]ledger.Value{}
	for _, m := range ledger.PerLayer() {
		v := traced[m.Workload][m.Name].Value
		if m.Workload == "*" { // measured by every traced run
			var vs []float64
			for _, metrics := range traced {
				vs = append(vs, metrics[m.Name].Value)
			}
			v = ledger.Median(vs)
		}
		s.Layers[m.Name] = ledger.Value{Value: v, Unit: m.Unit}
	}
	fmt.Println("\nper-layer metrics, one traced run per workload (host time unless virt_ or count; workload-independent ones are the median of the four runs)")
	printLayers(s.Layers, "")
	return s, ok, nil
}
