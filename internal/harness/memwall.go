package harness

import (
	"fmt"
	"runtime"

	"repro/internal/queues"
	"repro/internal/shard"
)

// MemWallConfig parameterizes ExpMemWall.
type MemWallConfig struct {
	// Backend selects the per-shard queue implementation for the fabric
	// columns (the nr baseline column is always the unsharded core queue).
	Backend shard.Backend
	// Seed is the experiment seed; trial seeds derive from it so a run is
	// reproducible from one number. Zero means seed 1 (the historical
	// default).
	Seed int64
}

// ExpMemWall (T17) re-measures the T10 sharded-scaling sweep after the
// memory-system overhaul, adding the allocation dimension: ops/s, heap
// allocations and bytes per operation for the nr baseline and the fabric
// across shard counts. T10's table (bench_results/BENCH_T10.json) is the
// frozen "before"; this experiment is the "after".
func ExpMemWall(gs, shardCounts []int, opsPerProc int, cfg MemWallConfig) (*Table, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	kMax := shardCounts[len(shardCounts)-1]
	cols := []string{"g", "nr Mops/s", "nr allocs/op"}
	for _, k := range shardCounts {
		cols = append(cols, fmt.Sprintf("k=%d", k))
	}
	cols = append(cols,
		fmt.Sprintf("k=%d allocs/op", kMax),
		fmt.Sprintf("k=%d B/op", kMax),
		fmt.Sprintf("speedup k=%d", kMax),
	)
	envCols := []string{"nr Mops/s", fmt.Sprintf("speedup k=%d", kMax)}
	for _, k := range shardCounts {
		envCols = append(envCols, fmt.Sprintf("k=%d", k))
	}
	t := &Table{
		ID:      "T17",
		Title:   fmt.Sprintf("Memory-wall rerun of T10: throughput and allocation profile (%s backend, pairs workload)", cfg.Backend),
		Columns: cols,
		// Throughput and speedup depend on the machine; the allocation
		// profile columns stay checkable across machines (run the gate
		// with matching GOMAXPROCS).
		EnvCols: envCols,
		Notes: []string{
			"Mops/s = completed operations per second / 1e6, best of 3 trials; allocs/op and B/op are heap-allocation deltas (runtime.MemStats) over the whole run divided by completed operations, minimum over the trials.",
			"Before/after comparison: BENCH_T10.json rows measured the same workload before block recycling, tree flattening and false-sharing padding.",
			"speedup = fabric at the largest shard count over the single nr-queue at the same goroutine count.",
		},
	}
	for _, g := range gs {
		g := g
		base, err := measureAlloc(func() (queues.Queue, error) { return queues.NewNR(g) }, g, opsPerProc, seed)
		if err != nil {
			return nil, err
		}
		row := []any{g, base.mops, base.allocsPerOp}
		var last allocMeasurement
		for _, k := range shardCounts {
			k := k
			m, err := measureAlloc(func() (queues.Queue, error) {
				return queues.NewSharded(g, k, cfg.Backend)
			}, g, opsPerProc, seed)
			if err != nil {
				return nil, err
			}
			row = append(row, m.mops)
			last = m
		}
		speedup := 0.0
		if base.mops > 0 {
			speedup = last.mops / base.mops
		}
		row = append(row, last.allocsPerOp, last.bytesPerOp, speedup)
		t.AddRow(row...)
	}
	return t, nil
}

// allocMeasurement is one cell group of the T17 table.
type allocMeasurement struct {
	mops        float64 // best-of-trials throughput, millions of ops/s
	allocsPerOp float64 // min-of-trials heap allocations per operation
	bytesPerOp  float64 // min-of-trials heap bytes per operation
}

// measureAlloc runs the pairs workload three times on fresh queues and
// reports the best throughput alongside the minimum per-op allocation
// profile: throughput tables compare capability, and the minimum strips
// one-off warm-up allocations (arena slabs, goroutine stacks) that a longer
// run amortizes away anyway.
func measureAlloc(mk func() (queues.Queue, error), procs, opsPerProc int, seed int64) (allocMeasurement, error) {
	out := allocMeasurement{allocsPerOp: -1, bytesPerOp: -1}
	for trial := 0; trial < 3; trial++ {
		q, err := mk()
		if err != nil {
			return out, err
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res, err := RunPairs(q, procs, opsPerProc, seed*8+int64(trial))
		if err != nil {
			return out, err
		}
		runtime.ReadMemStats(&m1)
		ops := float64(res.Summary.Ops)
		if ops == 0 {
			continue
		}
		allocs := float64(m1.Mallocs-m0.Mallocs) / ops
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / ops
		if tp := res.ThroughputOps(); tp > out.mops*1e6 {
			out.mops = tp / 1e6
		}
		if out.allocsPerOp < 0 || allocs < out.allocsPerOp {
			out.allocsPerOp = allocs
		}
		if out.bytesPerOp < 0 || bytes < out.bytesPerOp {
			out.bytesPerOp = bytes
		}
	}
	return out, nil
}
