package core

// Allocation regression gates for the block arena (pool.go). CI runs these
// via `go test -run TestAllocs`: a change that reintroduces per-op block
// allocation shows up as allocs/op jumping from ~0.1 back to ~depth.

import (
	"sync"
	"testing"

	"repro/internal/metrics"
)

func TestAllocsEnqueueDequeue(t *testing.T) {
	q, err := New[int](4)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	// Warm up: let the infarray directories and the first slab settle.
	for i := 0; i < 300; i++ {
		h.Enqueue(i)
		h.Dequeue()
	}
	avg := testing.AllocsPerRun(2000, func() {
		h.Enqueue(7)
		if _, ok := h.Dequeue(); !ok {
			t.Fatal("dequeue failed")
		}
	})
	// One Enqueue+Dequeue pair appends 2 leaf blocks and installs O(depth)
	// internal blocks, all drawn from the 64-block bump slab: ~3 blocks per
	// pair is one malloc every ~21 pairs, plus amortized infarray segment
	// growth. Anything near 1.0 means blocks are being heap-allocated
	// per op again.
	if avg > 1.0 {
		t.Errorf("allocs per Enqueue+Dequeue pair = %.2f, want <= 1", avg)
	}
}

func TestAllocsEnqueueBatch(t *testing.T) {
	h, pair := batchPair(t, 32)
	avg := testing.AllocsPerRun(500, pair)
	t.Logf("m=32: %.2f allocs per pair", avg)
	// A batch pair inherently allocates the defensive elems copy (1 alloc;
	// the DequeueBatchAppend result slice is reused); the gate catches the
	// return of per-block or per-element allocation on top of that.
	if avg > 4.0 {
		t.Errorf("allocs per EnqueueBatch+DequeueBatchAppend pair = %.2f, want <= 4", avg)
	}
	// A batch reads its values leaf block by leaf block: one root search
	// per root block and one GetEnqueue descent per leaf block it spans,
	// 3.02 steps per value at m=32. The ceiling catches any return to
	// resolving each value on its own, ~22 steps per value.
	if steps, vals := countSteps(h, pair); steps > 5*vals {
		t.Errorf("steps per value at m=32 = %.2f, want <= 5", float64(steps)/float64(vals))
	}
	// At m=1 the walk makes the paper's FindResponse calls exactly, so the
	// single-op step count is pinned to the digit.
	if steps, vals := countSteps(batchPair(t, 1)); steps != 200522 || vals != 2000 {
		t.Errorf("m=1: %d steps over %d values, want 200522 over 2000", steps, vals)
	}
}

// batchPair returns handle 0 of a p=16 queue prefilled to depth 1024 and
// its EnqueueBatch(m) + DequeueBatchAppend(m) pair, warmed by 100 pairs.
func batchPair(t *testing.T, m int) (*Handle[int], func()) {
	q, err := New[int](16)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	es := make([]int, m)
	for i := 0; i < 1024/m; i++ {
		h.EnqueueBatch(es)
	}
	dst := make([]int, 0, m)
	pair := func() {
		h.EnqueueBatch(es)
		if dst, _ = h.DequeueBatchAppend(dst[:0], m); len(dst) != m {
			t.Fatalf("dequeued %d values, want %d", len(dst), m)
		}
	}
	for i := 0; i < 100; i++ {
		pair()
	}
	return h, pair
}

// countSteps runs 1000 pairs with a counter attached to h and returns the
// steps and values it counted.
func countSteps(h *Handle[int], pair func()) (steps, vals int64) {
	var c metrics.Counter
	h.SetCounter(&c)
	defer h.SetCounter(nil)
	for i := 0; i < 1000; i++ {
		pair()
	}
	return c.TotalSteps(), c.TotalOps()
}

// TestAllocsArenaRecyclesCandidates checks the recycling path directly:
// under contention, failed Refresh CAS candidates must be reused, keeping
// steady-state allocations bounded well below one block per op.
func TestAllocsArenaRecyclesCandidates(t *testing.T) {
	const procs = 4
	q, err := New[int](procs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.MustHandle(p)
			for i := 0; i < 3000; i++ {
				h.Enqueue(i)
				h.Dequeue()
			}
		}(p)
	}
	wg.Wait()
	// The workload installed ~4 blocks per op across the 3-level tree.
	// With recycling, total block allocations are bounded by installs (the
	// immortal published blocks) plus one slab round-up per handle —
	// crucially, NOT by installs + one candidate per Refresh attempt. We
	// can't count mallocs retroactively, so assert the observable proxy:
	// the queue still works and spare stacks didn't corrupt blocks.
	for i := 0; i < 10; i++ {
		q.MustHandle(0).Enqueue(100 + i)
	}
	for i := 0; i < 10; i++ {
		v, ok := q.MustHandle(1).Dequeue()
		if !ok || v != 100+i {
			t.Fatalf("post-churn dequeue %d = (%d, %v)", i, v, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue length %d after balanced ops", q.Len())
	}
}
