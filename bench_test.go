// Benchmarks, one per reproduced table (DESIGN.md Section 2; results
// recorded in EXPERIMENTS.md). Custom metrics carry the paper's cost model:
// steps/op counts shared-memory operations, cas/op counts CAS instructions,
// maxop-steps is the worst single operation observed.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/harness"
	"repro/internal/queues"
	"repro/internal/shard"
)

var sweepPs = []int{2, 8, 32}

// benchWorkload runs a harness workload sized by b.N and reports the paper's
// cost-model metrics alongside wall-clock time.
func benchWorkload(b *testing.B, mk func(int) (queues.Queue, error), p int,
	run func(q queues.Queue, procs, opsPerProc int) (harness.Result, error)) {
	b.Helper()
	q, err := mk(p)
	if err != nil {
		b.Fatal(err)
	}
	opsPerProc := b.N/p + 1
	b.ResetTimer()
	res, err := run(q, p, opsPerProc)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(res.Summary.StepsPerOp, "steps/op")
	b.ReportMetric(res.Summary.CASPerOp, "cas/op")
	b.ReportMetric(float64(res.Summary.MaxOpSteps), "maxop-steps")
}

func pairs(q queues.Queue, procs, opsPerProc int) (harness.Result, error) {
	return harness.RunPairs(q, procs, opsPerProc, 1)
}

// msFactory resolves the MS-queue factory from the registry.
func msFactory(b *testing.B) func(int) (queues.Queue, error) {
	b.Helper()
	f, err := harness.FactoryByName("ms-queue")
	if err != nil {
		b.Fatal(err)
	}
	return f.New
}

// BenchmarkTable1CASBound (T1, Proposition 19): CAS per operation for the
// NR-queue vs the MS-queue across contention levels.
func BenchmarkTable1CASBound(b *testing.B) {
	impls := []struct {
		name string
		mk   func(int) (queues.Queue, error)
	}{
		{"nr", queues.NewNR},
		{"nr-bounded", queues.NewBounded},
		{"ms", msFactory(b)},
	}
	for _, impl := range impls {
		for _, p := range sweepPs {
			b.Run(fmt.Sprintf("%s/p=%d", impl.name, p), func(b *testing.B) {
				benchWorkload(b, impl.mk, p, pairs)
			})
		}
	}
}

// BenchmarkTable2EnqueueSteps (T2, Theorem 22): enqueue steps vs p.
func BenchmarkTable2EnqueueSteps(b *testing.B) {
	for _, p := range []int{2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchWorkload(b, queues.NewNR, p,
				func(q queues.Queue, procs, ops int) (harness.Result, error) {
					return harness.RunEnqueueOnly(q, procs, ops, 1)
				})
		})
	}
}

// BenchmarkTable3DequeueSteps (T3, Theorem 22): dequeue steps vs p at fixed
// queue size, and vs queue size at fixed p.
func BenchmarkTable3DequeueSteps(b *testing.B) {
	for _, p := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("vsP/p=%d", p), func(b *testing.B) {
			benchWorkload(b, func(procs int) (queues.Queue, error) {
				q, err := queues.NewNR(procs)
				if err != nil {
					return nil, err
				}
				return q, harness.Prefill(q, 1024)
			}, p, pairs)
		})
	}
	for _, q0 := range []int{16, 1024, 65536} {
		b.Run(fmt.Sprintf("vsQ/q=%d", q0), func(b *testing.B) {
			benchWorkload(b, func(procs int) (queues.Queue, error) {
				q, err := queues.NewNR(procs)
				if err != nil {
					return nil, err
				}
				return q, harness.Prefill(q, q0)
			}, 8, pairs)
		})
	}
}

// BenchmarkTable4RetryProblem (T4): amortized steps per op across all
// implementations — the CAS retry problem makes the baselines grow with p.
func BenchmarkTable4RetryProblem(b *testing.B) {
	for _, f := range harness.DefaultFactories() {
		for _, p := range sweepPs {
			b.Run(fmt.Sprintf("%s/p=%d", f.Name, p), func(b *testing.B) {
				benchWorkload(b, f.New, p, pairs)
			})
		}
	}
}

// BenchmarkTable5SpaceBound (T5, Theorem 31): live blocks stay bounded as
// operations accumulate in the bounded-space queue.
func BenchmarkTable5SpaceBound(b *testing.B) {
	q, err := repro.NewBoundedQueue[int64](8)
	if err != nil {
		b.Fatal(err)
	}
	h := q.MustHandle(0)
	const qmax = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Enqueue(int64(i))
		if i%qmax == qmax-1 {
			for j := 0; j < qmax; j++ {
				h.Dequeue()
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(q.TotalBlocks()), "live-blocks")
	b.ReportMetric(float64(q.GCInterval()), "G")
}

// BenchmarkTable6BoundedSteps (T6, Theorem 32): amortized steps of the
// bounded queue including GC phases.
func BenchmarkTable6BoundedSteps(b *testing.B) {
	for _, p := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchWorkload(b, queues.NewBounded, p, pairs)
		})
	}
}

// BenchmarkTable7Throughput (T7): raw wall-clock throughput comparison; the
// ns/op column is the headline number here.
func BenchmarkTable7Throughput(b *testing.B) {
	for _, f := range harness.DefaultFactories() {
		for _, p := range sweepPs {
			b.Run(fmt.Sprintf("%s/p=%d", f.Name, p), func(b *testing.B) {
				benchWorkload(b, f.New, p, pairs)
			})
		}
	}
}

// BenchmarkTable8WaitFree (T8, Corollary 23): worst single-operation step
// count while a quarter of the processes keep stalling.
func BenchmarkTable8WaitFree(b *testing.B) {
	impls := []struct {
		name string
		mk   func(int) (queues.Queue, error)
	}{
		{"nr", queues.NewNR},
		{"ms", msFactory(b)},
	}
	for _, impl := range impls {
		for _, p := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/p=%d", impl.name, p), func(b *testing.B) {
				benchWorkload(b, impl.mk, p,
					func(q queues.Queue, procs, ops int) (harness.Result, error) {
						return harness.RunWithStalls(q, procs, ops, procs/4, 0, 1)
					})
			})
		}
	}
}

// BenchmarkTable9Vector (T9, Section 7): per-operation cost of the vector's
// three operations.
func BenchmarkTable9Vector(b *testing.B) {
	b.Run("Append", func(b *testing.B) {
		v, err := repro.NewVector[int64](4)
		if err != nil {
			b.Fatal(err)
		}
		h := v.MustHandle(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Append(int64(i))
		}
	})
	b.Run("Get", func(b *testing.B) {
		v, err := repro.NewVector[int64](4)
		if err != nil {
			b.Fatal(err)
		}
		h := v.MustHandle(0)
		const n = 1 << 16
		for i := int64(0); i < n; i++ {
			h.Append(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := h.Get(int64(i) & (n - 1)); !ok {
				b.Fatal("Get failed")
			}
		}
	})
	b.Run("Index", func(b *testing.B) {
		v, err := repro.NewVector[int64](4)
		if err != nil {
			b.Fatal(err)
		}
		h := v.MustHandle(0)
		const n = 1 << 12
		refs := make([]repro.VectorRef, n)
		for i := int64(0); i < n; i++ {
			refs[i] = h.Append(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.Index(refs[i&(n-1)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable10Sharded (T10): enqueue+dequeue throughput of the sharded
// fabric vs shard count. The single tournament tree (k=1) serializes all
// goroutines through one root; k roots should lift throughput with k.
func BenchmarkTable10Sharded(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		for _, p := range []int{8, 32} {
			b.Run(fmt.Sprintf("k=%d/p=%d", k, p), func(b *testing.B) {
				benchWorkload(b, func(procs int) (queues.Queue, error) {
					return queues.NewSharded(procs, k, shard.BackendCore)
				}, p, pairs)
			})
		}
	}
	// Bounded backend reference point at the largest shard count.
	b.Run("bounded/k=8/p=32", func(b *testing.B) {
		benchWorkload(b, func(procs int) (queues.Queue, error) {
			return queues.NewSharded(procs, 8, shard.BackendBounded)
		}, 32, pairs)
	})
}

// allocImpls are the implementations whose hot paths run through the block
// arenas (internal/core pool.go, internal/bounded pool.go) and the flattened
// ordering tree — the subjects of the T17 memory-wall experiment.
func allocImpls() []struct {
	name string
	mk   func(int) (queues.Queue, error)
} {
	return []struct {
		name string
		mk   func(int) (queues.Queue, error)
	}{
		{"nr", queues.NewNR},
		{"nr-bounded", queues.NewBounded},
		{"sharded-4(core)", func(p int) (queues.Queue, error) {
			return queues.NewSharded(p, 4, shard.BackendCore)
		}},
	}
}

// BenchmarkEnqueueDequeue (T17): single-handle enqueue+dequeue pairs with
// allocation reporting. Run with -benchmem; the allocs/op column is the
// regression gate the TestAllocs tests enforce (near-zero on the recycled
// core path, one block and one store header per installed block on the
// bounded path).
func BenchmarkEnqueueDequeue(b *testing.B) {
	for _, impl := range allocImpls() {
		b.Run(impl.name, func(b *testing.B) {
			q, err := impl.mk(2)
			if err != nil {
				b.Fatal(err)
			}
			h, err := q.Handle(0)
			if err != nil {
				b.Fatal(err)
			}
			// Warm the arenas so steady-state recycling, not cold-start
			// slab carving, is what gets measured.
			for i := 0; i < 512; i++ {
				h.Enqueue(int64(i))
				h.Dequeue()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Enqueue(int64(i))
				h.Dequeue()
			}
		})
	}
}

// BenchmarkEnqueueDequeueBatch (T17): the batch variant — m operations per
// multi-op block, so fixed per-block allocations amortize across the batch.
func BenchmarkEnqueueDequeueBatch(b *testing.B) {
	const m = 8
	vs := make([]int64, m)
	for _, impl := range allocImpls() {
		b.Run(impl.name, func(b *testing.B) {
			q, err := impl.mk(2)
			if err != nil {
				b.Fatal(err)
			}
			h, err := q.Handle(0)
			if err != nil {
				b.Fatal(err)
			}
			bh, ok := h.(queues.BatchHandle)
			if !ok {
				b.Skipf("%s: no batch surface", impl.name)
			}
			for i := 0; i < 64; i++ {
				bh.EnqueueBatch(vs)
				bh.DequeueBatch(m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += m {
				bh.EnqueueBatch(vs)
				bh.DequeueBatch(m)
			}
		})
	}
}

// BenchmarkMicroOps: classic single-threaded per-op costs for every
// implementation (the paper's Section 7 remark that its queue costs more
// than the MS-queue in the uncontended case).
func BenchmarkMicroOps(b *testing.B) {
	for _, f := range harness.DefaultFactories() {
		b.Run(f.Name+"/EnqDeq", func(b *testing.B) {
			q, err := f.New(1)
			if err != nil {
				b.Fatal(err)
			}
			h, err := q.Handle(0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Enqueue(int64(i))
				h.Dequeue()
			}
		})
	}
}
