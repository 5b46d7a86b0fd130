//go:build linux

// Command bench is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the queue would see, and a traced run that
// prices each layer from the outside in. BENCHMARK.json at the repository
// root names the workloads and metrics; README.md in this directory
// defines them.
//
//	go run ./bench                                  # all four workloads, end-to-end metrics
//	go run ./bench -workload svc-singles -seed 123  # one workload
//	go run ./bench -trace 1                         # per-layer metrics + bench/out/trace-<workload>.json
//	go run ./bench -aa 5                            # A/A: five sets of runs of the same code
//
// It imports only the layers' public surface (package repro, and from
// internal/server the Client, the wire constants and the Snapshot types)
// and builds cmd/queued during set-up. It claims no gain.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	root     string
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	sz       sizes
}

// report gathers a run's numbers. A sampled metric has one value per trial
// and reads as their median; a set metric has one value.
type report struct {
	samples   map[string][]float64
	values    map[string]float64
	attempted int64
	failed    int64
	verdict   verdict
	notes     []string // lines for the human reader
}

func newReport() *report {
	return &report{samples: map[string][]float64{}, values: map[string]float64{}}
}

func (r *report) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }
func (r *report) set(name string, v float64)    { r.values[name] = v }
func (r *report) note(format string, a ...any)  { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// check folds one trial's correctness into the run's.
func (r *report) check(t trialResult) {
	r.attempted += t.ops + t.failed
	r.failed += t.failed + t.verdict.lost + t.verdict.dup + t.verdict.unknown
	r.verdict.add(t.verdict)
}

func (r *report) metric(name string) (float64, bool) {
	if v, ok := r.values[name]; ok {
		return v, true
	}
	if s, ok := r.samples[name]; ok {
		return median(s), true
	}
	return 0, false
}

// runWorkload runs one workload once. A traced run is the ledger followed
// by a traced pass of the workload.
func runWorkload(cfg runConfig) (*report, error) {
	var tr *trace
	var ledger map[string]float64
	if cfg.traced {
		tr = newTrace()
		var err error
		if ledger, err = runLedger(cfg, tr); err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
	}
	var rep *report
	var err error
	switch cfg.workload {
	case "lib-core-pairs":
		rep, err = runLib(&corePairs{perWkr: cfg.sz.corePairsPerWkr}, cfg, tr)
	case "lib-bounded-prodcons":
		rep, err = runLib(&prodCons{perTrial: cfg.sz.prodconsPerTrial}, cfg, tr)
	case "svc-singles":
		rep, err = runSvc(svcParams{valueLen: singlesValueLen, m: 1, openRate: singlesOpenRate}, cfg, tr)
	case "svc-batch":
		rep, err = runSvc(svcParams{valueLen: batchValueLen, m: batchM, openRate: batchOpenRate}, cfg, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		for k, v := range ledger {
			rep.set(k, v)
		}
		// The control: a tax that is paid per frame all but vanishes per
		// value at m32; one that does not is paid per value.
		for _, layer := range []string{"shard", "server", "client"} {
			rep.note("ED-2 control: %s tax per value %.0f ns at m1, %.0f ns at m32",
				layer, ledger[layer+".m1.tax_ns_per_op"], ledger[layer+".m32.tax_ns_per_op"])
		}
		rep.set("failed_frac", ratio(rep.failed, rep.attempted))
		path, err := tr.write(cfg.root, cfg.workload)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		rep.note("%d spans written to %s", len(tr.spans), path)
	}
	return rep, nil
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric the spec names for this kind of run, by name
// with its unit, and then the result line. A per-layer metric the workload
// has no value for — it never entered that layer — reads 0.
func emit(s *spec, cfg runConfig, rep *report) (correct bool, err error) {
	metrics := s.EndToEnd
	if cfg.traced {
		metrics = s.PerLayer
	}
	res := result{
		Correct:   rep.verdict.ok() && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Printf("workload %s  seed %d  %s  %s\n", cfg.workload, cfg.seed, cfg.duration, map[bool]string{false: "untraced", true: "traced"}[cfg.traced])
	for _, m := range metrics {
		v, ok := rep.metric(m.Name)
		if !ok && !cfg.traced {
			return false, fmt.Errorf("workload %s reported no %s", cfg.workload, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("  %-28s %14.4f %s\n", m.Name, v, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Println("  #", n)
	}
	fmt.Printf("  # attempted %d, failed %d, %s\n", rep.attempted, rep.failed, rep.verdict)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// manifest describes the machine and build a run's numbers belong to.
func manifest() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	ncpu := runtime.NumCPU()
	fmt.Printf("# manifest: commit %s, %s, nproc %d; lib workloads at GOMAXPROCS %d; svc: queued and the generator at GOMAXPROCS 1 each, sharing one CPU\n",
		commit, runtime.Version(), ncpu, ncpu)
	if load, err := loadAvg1(); err != nil {
		fmt.Printf("# manifest: load average unreadable: %v\n", err)
	} else if load > float64(ncpu)/2 {
		fmt.Printf("# manifest: WARNING 1-minute load average %.2f is above half of %d cores; timings will be noisy\n", load, ncpu)
	} else {
		fmt.Printf("# manifest: 1-minute load average %.2f\n", load)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: each workload of BENCHMARK.json in turn, one process each)")
		seed     = flag.Int64("seed", defaultSeed, "seed for payload bytes, handle rotation, sampling and the Poisson schedule")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		traceOn  = flag.Int("trace", 0, "1: print the per-layer metrics and write bench/out/trace-<workload>.json instead of the end-to-end metrics")
		aa       = flag.Int("aa", 0, "A/A mode: run the untraced suite this many times and report each metric's spread against its bound")
		smoke    = flag.Bool("smoke", false, "tiny op counts: exercises every code path, measures nothing")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceOn != 0, *aa, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("outputs incorrect: values lost, duplicated, reordered or operations failed")

func run(workload string, seed int64, seconds float64, traced bool, aa int, smoke bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	s, err := loadSpec(root)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		return err
	}
	if aa > 0 {
		return runAA(root, s, aa, seed, seconds)
	}
	if workload == "" {
		return runEach(s, seed, seconds, traced, smoke)
	}
	cfg := runConfig{
		root:     root,
		workload: workload,
		seed:     seed,
		duration: time.Duration(seconds * float64(time.Second)),
		traced:   traced,
		sz:       fullSizes,
	}
	if smoke {
		cfg.sz, cfg.duration = smokeSizes, 200*time.Millisecond
	}
	manifest()
	stolen0, stealErr := stolenCPU()
	t0 := time.Now()
	rep, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	// How much the host took from this machine while the run had work for
	// it: the first thing to look at when a run disagrees with its peers.
	if stolen1, err := stolenCPU(); err == nil && stealErr == nil {
		rep.note("the host stole %s of CPU time from this machine during the %s the run took", stolen1-stolen0, time.Since(t0).Round(time.Second))
	}
	correct, err := emit(s, cfg, rep)
	if err != nil {
		return err
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// runEach runs every workload in a process of its own, so that one
// workload's memory high-water mark and GOMAXPROCS do not leak into the
// next, and passes their output through.
func runEach(s *spec, seed int64, seconds float64, traced, smoke bool) error {
	var failed []string
	for _, w := range s.Workloads {
		args := selfArgs(w.Name, seed, seconds, traced)
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.Name, err))
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

// selfArgs is the command line that runs one workload in a new process of
// this same binary.
func selfArgs(workload string, seed int64, seconds float64, traced bool) []string {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	t := "0"
	if traced {
		t = "1"
	}
	return []string{exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", t}
}
