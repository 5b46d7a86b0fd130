// Command benchqueue regenerates the reproduction tables (T1-T16 in
// DESIGN.md) that validate the paper's analytical claims: CAS bounds
// (Proposition 19), step complexity (Theorem 22), the CAS retry problem of
// the baselines, space bounds (Theorem 31) and bounded-variant amortized
// steps (Theorem 32), a wall-clock throughput comparison, the sharded
// fabric's throughput scaling with shard count, the network queue
// service's latency under open-loop load, batch amortization, multi-tenant
// per-queue isolation, the observability layer's overhead budget, and the
// request-trace stage decomposition.
//
// Usage:
//
//	benchqueue -exp all                 # every experiment, paper-scale
//	benchqueue -exp casbound -ops 4000  # one experiment, custom op count
//	benchqueue -exp space -procs 8
//	benchqueue -impl sharded -shards 8  # fabric scaling (T10)
//	benchqueue -exp obs                 # T15 observability overhead
//	benchqueue -exp trace               # T16 stage decomposition
//	benchqueue -exp memwall             # T17 allocation profile
//	benchqueue -exp netwall             # T18 network hot-path allocs/frame and B/frame
//	benchqueue -exp all -json results   # also emit results/BENCH_<ID>.json
//	benchqueue -exp sharded -seeds 3    # 3 fixed seeds, variance columns + manifest
//
//	benchqueue -compare bench_results/BENCH_T12.json -tolerance 0.15
//	  re-runs the experiment with the baseline manifest's parameters and
//	  seeds, checks every recorded metric against the baseline within a
//	  variance-scaled tolerance band, and exits 1 on regression. Add
//	  -portable to skip machine-dependent columns (throughput, latency)
//	  when gating on a baseline recorded on different hardware.
//
// Experiments: casbound, enqsteps, deqsteps, retry, adversary, space,
// boundedsteps, throughput, waitfree, ablation, sharded, service, batch,
// multitenant, obs, trace, memwall, netwall, all.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/shard"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run (casbound enqsteps deqsteps retry adversary space boundedsteps throughput waitfree ablation sharded service batch multitenant obs trace memwall netwall all)")
		ops       = flag.Int("ops", 2000, "operations per process per measurement")
		procs     = flag.Int("procs", 8, "process count for single-p experiments (space, deqsteps q-sweep)")
		psFlag    = flag.String("ps", "1,2,4,8,16,32,64", "comma-separated process counts for sweeps")
		impl      = flag.String("impl", "", "focus on one implementation: sharded (runs the T10 scaling experiment)")
		shards    = flag.Int("shards", 8, "largest shard count for -exp sharded / -impl sharded")
		backend   = flag.String("backend", "core", "sharded fabric backend: core or bounded")
		jsonDir   = flag.String("json", "", "also write each table as BENCH_<ID>.json into this directory")
		seeds     = flag.Int("seeds", 1, "run each experiment this many times with fixed seeds (42,123,456,...) and emit mean/stddev/cv variance columns plus a run manifest")
		compare   = flag.String("compare", "", "re-run the experiment recorded in this BENCH_<ID>.json and exit 1 if any metric leaves its tolerance band")
		tolerance = flag.Float64("tolerance", 0.15, "relative tolerance for -compare; the band per metric is tolerance + 2*cv(baseline)")
		portable  = flag.Bool("portable", false, "with -compare, skip environment-dependent columns (throughput, latency, speedup) so a baseline from other hardware can gate structural metrics")
	)
	flag.Parse()
	ps, err := parseInts(*psFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchqueue:", err)
		os.Exit(2)
	}
	// Validate eagerly: a typo must not surface only after the other
	// paper-scale experiments have run for minutes.
	if *backend != string(shard.BackendCore) && *backend != string(shard.BackendBounded) {
		fmt.Fprintf(os.Stderr, "benchqueue: unknown -backend %q (want core or bounded)\n", *backend)
		os.Exit(2)
	}
	cfg := runConfig{
		ps:        ps,
		ops:       *ops,
		procs:     *procs,
		shards:    *shards,
		backend:   shard.Backend(*backend),
		jsonDir:   *jsonDir,
		seeds:     *seeds,
		tolerance: *tolerance,
		portable:  *portable,
	}
	if *compare != "" {
		if err := runCompare(*compare, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchqueue:", err)
			os.Exit(1)
		}
		return
	}
	what := *exp
	if *impl != "" {
		// -impl selects the implementation-focused experiment directly.
		if *impl != "sharded" {
			fmt.Fprintf(os.Stderr, "benchqueue: unknown -impl %q (want sharded)\n", *impl)
			os.Exit(2)
		}
		expExplicit := false
		flag.Visit(func(f *flag.Flag) { expExplicit = expExplicit || f.Name == "exp" })
		if expExplicit && *exp != "sharded" {
			fmt.Fprintf(os.Stderr, "benchqueue: -exp %s conflicts with -impl sharded (which runs only the T10 experiment); drop one\n", *exp)
			os.Exit(2)
		}
		what = "sharded"
	}
	if err := run(what, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchqueue:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	ps        []int
	ops       int
	procs     int
	shards    int
	backend   shard.Backend
	jsonDir   string
	seeds     int
	tolerance float64
	portable  bool
}

// runner executes one named experiment for one seed. Wall-clock-driven
// experiments (service, obs, trace, ...) have no statistical seed; for them
// the seed is a repetition label and across-seed variance isolates
// environment noise.
type runner func(cfg runConfig, seed int64) ([]*harness.Table, error)

func runners() map[string]runner {
	one := func(t *harness.Table, err error) ([]*harness.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*harness.Table{t}, nil
	}
	return map[string]runner{
		"casbound": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			return one(harness.ExpCASBound(cfg.ps, cfg.ops, seed))
		},
		"enqsteps": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			return one(harness.ExpEnqueueSteps(cfg.ps, cfg.ops, seed))
		},
		"deqsteps": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			a, err := harness.ExpDequeueStepsVsP(cfg.ps, 1024, cfg.ops, seed)
			if err != nil {
				return nil, err
			}
			b, err := harness.ExpDequeueStepsVsQ(cfg.procs,
				[]int{16, 64, 256, 1024, 4096, 16384, 65536, 262144}, cfg.ops, seed)
			if err != nil {
				return nil, err
			}
			return []*harness.Table{a, b}, nil
		},
		"retry": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			return one(harness.ExpRetryProblem(cfg.ps, cfg.ops, seed))
		},
		"adversary": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			return one(harness.ExpAdversarial(cfg.ps, cfg.ops, seed))
		},
		"space": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			// Fully deterministic: no randomness to seed.
			return one(harness.ExpSpaceBound(cfg.procs, 64, 4000))
		},
		"boundedsteps": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			return one(harness.ExpBoundedSteps(cfg.ps, cfg.ops, seed))
		},
		"throughput": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			return one(harness.ExpThroughput(cfg.ps, cfg.ops, seed))
		},
		"waitfree": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			return one(harness.ExpWaitFree(cfg.ps, cfg.ops, seed))
		},
		"sharded": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			return one(harness.ExpShardedScaling(cfg.ps,
				harness.ShardCountsUpTo(cfg.shards), cfg.ops, cfg.backend, seed))
		},
		"netwall": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			// T18: server-side allocations per frame on the network hot
			// path, conservation-checked per cell. The round count derives
			// from -ops so compare mode can rebuild the run from the
			// manifest params alone.
			return one(harness.ExpNetMemWall([]int{1, 8, 64},
				harness.NetWallConfig{
					Shards:  cfg.shards,
					Backend: cfg.backend,
					Rounds:  max(4, cfg.ops/128),
					Seed:    seed,
				}))
		},
		"memwall": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			// T17: the T10 sweep re-measured after the memory-system
			// overhaul (block arenas, flattened tree, padding), with
			// allocs/op and B/op columns. The goroutine sweep is fixed so
			// the table lines up with BENCH_T10.json, the frozen
			// before-measurement.
			return one(harness.ExpMemWall([]int{8, 16, 32, 64},
				harness.ShardCountsUpTo(cfg.shards), cfg.ops,
				harness.MemWallConfig{Backend: cfg.backend, Seed: seed}))
		},
		"batch": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			// T12: one multi-op leaf block per batch; blocks installed per
			// operation must fall as the batch grows.
			return one(harness.ExpBatchAmortization([]int{1, 4, 16, 64}, cfg.procs, cfg.ops, seed))
		},
		"service": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			// Modest in-process sweep; cmd/qload drives the full-knob
			// version against an external queued.
			return one(harness.ExpServiceLatency([]int{1000, 4000, 16000},
				harness.ServiceConfig{Shards: cfg.shards, Backend: cfg.backend}))
		},
		"multitenant": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			// T13: per-queue throughput isolation as tenants multiply at
			// equal aggregate offered load; cmd/qload -tenants drives the
			// full-knob version against an external queued.
			return one(harness.ExpMultiTenant([]int{1, 2, 4},
				harness.MultiTenantConfig{Shards: cfg.shards, Backend: cfg.backend}))
		},
		"obs": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			// T15: the observability layer's CPU cost per operation, obs-on
			// vs obs-off servers under identical paced open-loop load. All
			// rates stay below loopback capacity (~160k ops/s here) so both
			// arms do identical work and the CPU delta isolates the
			// observability layer; saturated throughput is too noisy on
			// shared hardware to resolve the <3% budget.
			return one(harness.ExpObsOverhead([]int{16000, 64000, 128000},
				harness.ObsConfig{Shards: cfg.shards, Backend: cfg.backend}))
		},
		"trace": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			// T16: per-stage latency decomposition of traced requests at
			// low, mid, and saturation load, plus the tracing-disabled
			// overhead re-measurement. Rates mirror the T11 sweep shape:
			// the last point is past loopback capacity so the saturation
			// row shows where queueing delay accumulates.
			return one(harness.ExpTraceDecomposition([]int{8000, 32000, 128000},
				harness.TraceConfig{Shards: cfg.shards, Backend: cfg.backend}))
		},
		"ablation": func(cfg runConfig, seed int64) ([]*harness.Table, error) {
			a, err := harness.ExpAblationSearch(4, 16, []int{0, 4, 16, 64, 256}, 500, seed)
			if err != nil {
				return nil, err
			}
			b, err := harness.ExpAblationRefresh(cfg.ps, cfg.ops, seed)
			if err != nil {
				return nil, err
			}
			c, err := harness.ExpAblationGC(cfg.procs, []int64{4, 16, 64, 256, 1024, 8192}, cfg.ops, seed)
			if err != nil {
				return nil, err
			}
			return []*harness.Table{a, b, c}, nil
		},
	}
}

// params records the run configuration in the manifest so compare mode can
// reproduce the exact run from the baseline file alone.
func params(exp string, cfg runConfig) map[string]any {
	return map[string]any{
		"exp":     exp,
		"ps":      cfg.ps,
		"ops":     cfg.ops,
		"procs":   cfg.procs,
		"shards":  cfg.shards,
		"backend": string(cfg.backend),
	}
}

func run(exp string, cfg runConfig) error {
	reg := runners()
	names := []string{exp}
	if exp == "all" {
		names = []string{"casbound", "enqsteps", "deqsteps", "retry", "adversary",
			"space", "boundedsteps", "throughput", "waitfree", "ablation", "sharded", "batch", "service",
			"multitenant", "obs", "trace", "memwall", "netwall"}
	}
	for _, name := range names {
		r, ok := reg[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		tables, err := runSeeded(name, r, cfg)
		if err != nil {
			if exp == "all" {
				return fmt.Errorf("%s: %w", name, err)
			}
			return err
		}
		for _, t := range tables {
			fmt.Println(t.String())
			if err := emitJSON(cfg.jsonDir, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSeeded executes one experiment across the configured seeds, printing
// any precondition violations the manifest recorded.
func runSeeded(name string, r runner, cfg runConfig) ([]*harness.Table, error) {
	seeds := harness.Seeds(cfg.seeds)
	tables, err := harness.RunSeededTables(seeds, params(name, cfg), func(seed int64) ([]*harness.Table, error) {
		return r(cfg, seed)
	})
	if err != nil {
		return nil, err
	}
	if len(tables) > 0 && tables[0].Manifest != nil {
		for _, v := range tables[0].Manifest.Preconditions {
			fmt.Fprintln(os.Stderr, "benchqueue: precondition:", v)
		}
	}
	return tables, nil
}

// runCompare re-runs the experiment recorded in a committed baseline with
// the baseline's own parameters and seeds, checks every recorded metric
// against its variance-scaled tolerance band, and returns a non-nil error
// (wrapping harness.ErrRegression) if any metric regressed.
func runCompare(path string, cfg runConfig) error {
	baseline, err := harness.ReadTableJSON(path)
	if err != nil {
		return err
	}
	if baseline.Manifest == nil {
		return fmt.Errorf("%s has no run manifest; regenerate it with -seeds >= 2 before gating on it", path)
	}
	name, rcfg, err := configFromManifest(baseline.Manifest, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	r, ok := runners()[name]
	if !ok {
		return fmt.Errorf("%s: baseline manifest names unknown experiment %q", path, name)
	}
	rcfg.seeds = len(baseline.Manifest.Seeds)
	tables, err := harness.RunSeededTables(baseline.Manifest.Seeds, params(name, rcfg), func(seed int64) ([]*harness.Table, error) {
		return r(rcfg, seed)
	})
	if err != nil {
		return err
	}
	var current *harness.Table
	for _, t := range tables {
		if t.ID == baseline.ID {
			current = t
			break
		}
	}
	if current == nil {
		return fmt.Errorf("%s: experiment %q produced no table with id %s", path, name, baseline.ID)
	}
	if bm, cm := baseline.Manifest, current.Manifest; cm != nil && bm.GOMAXPROCS != cm.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "benchqueue: warning: GOMAXPROCS differs (baseline %d, here %d); contention-sensitive metrics may drift — record baselines and gates at matching GOMAXPROCS\n",
			bm.GOMAXPROCS, cm.GOMAXPROCS)
	}
	report, cmpErr := harness.Compare(baseline, current, cfg.tolerance, cfg.portable)
	if report != nil {
		fmt.Println(report.String())
		if cfg.jsonDir != "" {
			p, werr := harness.WriteCompareJSON(cfg.jsonDir, report)
			if werr != nil {
				return errors.Join(cmpErr, werr)
			}
			fmt.Fprintln(os.Stderr, "benchqueue: wrote", p)
		}
	}
	return cmpErr
}

// configFromManifest rebuilds the run configuration compare mode needs from
// a baseline's manifest params (JSON round-trips numbers as float64).
// Gate-only knobs (tolerance, portable, jsonDir) carry over from the
// command line.
func configFromManifest(m *harness.Manifest, cli runConfig) (string, runConfig, error) {
	cfg := runConfig{
		jsonDir:   cli.jsonDir,
		tolerance: cli.tolerance,
		portable:  cli.portable,
	}
	name, ok := m.Params["exp"].(string)
	if !ok || name == "" {
		return "", cfg, fmt.Errorf("manifest params lack the experiment name")
	}
	var err error
	if cfg.ops, err = paramInt(m.Params, "ops"); err != nil {
		return "", cfg, err
	}
	if cfg.procs, err = paramInt(m.Params, "procs"); err != nil {
		return "", cfg, err
	}
	if cfg.shards, err = paramInt(m.Params, "shards"); err != nil {
		return "", cfg, err
	}
	if cfg.ps, err = paramIntSlice(m.Params, "ps"); err != nil {
		return "", cfg, err
	}
	backend, _ := m.Params["backend"].(string)
	if backend == "" {
		backend = string(shard.BackendCore)
	}
	cfg.backend = shard.Backend(backend)
	return name, cfg, nil
}

func paramInt(params map[string]any, key string) (int, error) {
	switch v := params[key].(type) {
	case float64:
		return int(v), nil
	case int:
		return v, nil
	default:
		return 0, fmt.Errorf("manifest params lack %q", key)
	}
}

func paramIntSlice(params map[string]any, key string) ([]int, error) {
	switch v := params[key].(type) {
	case []int:
		return v, nil
	case []any:
		out := make([]int, 0, len(v))
		for _, e := range v {
			f, ok := e.(float64)
			if !ok {
				return nil, fmt.Errorf("manifest params %q has a non-numeric entry", key)
			}
			out = append(out, int(f))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("manifest params lack %q", key)
	}
}

// emitJSON writes t as dir/BENCH_<ID>.json via the shared harness writer
// (which creates dir if missing); a dir of "" disables emission.
func emitJSON(dir string, t *harness.Table) error {
	if dir == "" {
		return nil
	}
	path, err := harness.WriteTableJSON(dir, t)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "benchqueue: wrote", path)
	return nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("invalid process count %q", p)
		}
		if n < 1 {
			return nil, fmt.Errorf("process count %d must be positive", n)
		}
		out = append(out, n)
	}
	return out, nil
}
