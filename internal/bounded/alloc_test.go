package bounded

// Allocation regression gates for the bounded variant. Every block a node
// installs costs one 56-byte version header of the block store
// (internal/pbst: lo, hi, the first and last values, the trie root and
// shift, and a pointer to the tail chunk, whose slots the versions share)
// plus an amortised 1/16 of a chunk push, which allocates the next tail
// chunk and copies the trie path; published blocks are heap objects of
// their own, and only Refresh candidates that lost their CAS come back
// through the arena (pool.go). An Enqueue;Dequeue pair installs one block
// per level per op, so the floor is 2 allocations per level per op and grows
// with log2 p. The gate pins that floor at two tree heights, which catches a
// second header copy per install or a per-op block allocation creeping in,
// and pins the bytes, which catch a header or chunk growing; the white-box
// tests check recycling fires at all.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func TestAllocsBoundedPair(t *testing.T) {
	// Measured 13 and 21 allocs per pair: 3 and 5 levels x 2 ops x (block +
	// header), the rest chunk pushes and, at p=4, the tail chunk a GC phase's
	// DropBelow copies when it cuts inside the tail. Measured 1,249 and
	// 2,199 bytes per pair (1,918 and 3,319 while the header carried a
	// 16-slot tail inline); the byte ceilings are those +10%. p=17 is the
	// fabric's default (16 leasable slots plus the maintenance slot): handle
	// 0 sits at depth 4, as at p=16, and measures 21 allocs and 2,166 bytes
	// (26 and 2,599 while the tree rounded up to 32 leaves), so it gets
	// p=16's ceilings.
	for _, c := range []struct {
		procs          int
		ceiling, bytes float64
	}{{4, 13, 1374}, {16, 22, 2419}, {17, 22, 2419}} {
		t.Run(fmt.Sprintf("p%d", c.procs), func(t *testing.T) {
			q, err := New[int](c.procs)
			if err != nil {
				t.Fatal(err)
			}
			h := q.MustHandle(0)
			for i := 0; i < 300; i++ {
				h.Enqueue(i)
				h.Dequeue()
			}
			pair := func() {
				h.Enqueue(7)
				if _, ok := h.Dequeue(); !ok {
					t.Fatal("dequeue failed")
				}
			}
			avg := testing.AllocsPerRun(2000, pair)
			bytes := bytesPerRun(2000, pair)
			t.Logf("p=%d: %.2f allocs, %.0f bytes per Enqueue+Dequeue pair", c.procs, avg, bytes)
			if avg > c.ceiling {
				t.Errorf("allocs per bounded Enqueue+Dequeue pair at p=%d = %.2f, want <= %.0f", c.procs, avg, c.ceiling)
			}
			if bytes > c.bytes {
				t.Errorf("bytes per bounded Enqueue+Dequeue pair at p=%d = %.0f, want <= %.0f", c.procs, bytes, c.bytes)
			}
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after a warm-up call, at GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestAllocsBoundedBatchPair pins what one EnqueueBatch(m) +
// DequeueBatchAppend(m) pair costs at p=16, depth 1024. Steps are counted
// per value, each enqueued or dequeued value being one op. Measured at m=32:
// 29 allocs and 87.83 steps per value while every value ran its own
// FindResponse, 24 and 7.43 now that a batch reads its values leaf block by
// leaf block. At m=1 the walk makes FindResponse's calls exactly, and a
// single goroutine makes the count exact: 645,579 steps over 2,000 values,
// recorded before the walk.
func TestAllocsBoundedBatchPair(t *testing.T) {
	h, pair := batchPair(t, 32)
	avg := testing.AllocsPerRun(1000, pair)
	t.Logf("m=32: %.2f allocs per pair", avg)
	if avg > 26 {
		t.Errorf("allocs per bounded batch pair at m=32 = %.2f, want <= 26", avg)
	}
	if steps, vals := countSteps(h, pair); steps > 12*vals {
		t.Errorf("steps per value at m=32 = %.2f, want <= 12", float64(steps)/float64(vals))
	}
	if steps, vals := countSteps(batchPair(t, 1)); steps != 645579 || vals != 2000 {
		t.Errorf("m=1: %d steps over %d values, want 645579 over 2000", steps, vals)
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

// TestAllocsArenaReuse checks the arena mechanics deterministically:
// recycled blocks are reused, fully reset, and overflow the spare stack
// into the shared pool.
func TestAllocsArenaReuse(t *testing.T) {
	q, err := New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	b1 := h.newBlock()
	b1.index = 9
	b1.sumEnq = 5
	b1.isDeq = true
	b1.deqCount = 3
	b1.elems = []int{1}
	b1.response.Store(&response[int]{ok: true})
	h.recycle(b1)
	b2 := h.newBlock()
	if b2 != b1 {
		t.Fatal("recycled block not reused")
	}
	if b2.index != 0 || b2.sumEnq != 0 || b2.isDeq || b2.deqCount != 0 ||
		b2.elems != nil || b2.response.Load() != nil {
		t.Fatalf("recycled block not reset: index=%d sumEnq=%d isDeq=%v deqCount=%d",
			b2.index, b2.sumEnq, b2.isDeq, b2.deqCount)
	}
	// Overflow: beyond spareCap the excess must reach the shared pool.
	for i := 0; i < spareCap+4; i++ {
		h.recycle(&block[int]{index: int64(i)})
	}
	if len(h.spare) != spareCap {
		t.Fatalf("spare stack holds %d blocks, want %d", len(h.spare), spareCap)
	}
	if q.arena.Get() == nil {
		t.Fatal("spare overflow did not reach the shared pool")
	}
}

// TestAllocsRefreshFailureRecycles drives refresh's CAS-failure path, which
// uniprocessor scheduling essentially never hits naturally: a handle reads
// the root tree, another handle's operation swings the pointer, and the
// first handle's candidate must come back through the arena instead of
// becoming garbage.
func TestAllocsRefreshFailureRecycles(t *testing.T) {
	q, err := New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := q.MustHandle(0), q.MustHandle(1)
	h0.Enqueue(1) // seed so both root children have history

	var wg sync.WaitGroup
	spares := len(h0.spare)
	// Stage the race: h1 appends at its leaf but we pause it before root
	// refresh by doing the steps manually — bounded has no stepper, so
	// instead make h0's view stale: load the root tree, let h1 run a full
	// op (which refreshes the root), then run h0's refresh from the stale
	// continuation. refresh reloads internally, so replicate its body with
	// the stale snapshot to exercise createBlock/addBlock/casTree/recycle
	// exactly as a preempted refresh would execute them.
	root := q.root
	tStale := h0.loadTree(root)
	_, lastStale := h0.treeMax(tStale)
	wg.Add(1)
	go func() {
		defer wg.Done()
		h1.Enqueue(2)
	}()
	wg.Wait()
	b := h0.createBlock(root, tStale, lastStale)
	if b == nil {
		t.Fatal("staged refresh found nothing to propagate")
	}
	t2 := h0.addBlock(root, tStale, lastStale, b)
	if h0.casTree(root, tStale, t2) {
		t.Fatal("stale CAS unexpectedly succeeded")
	}
	h0.recycle(b)
	if len(h0.spare) != spares+1 {
		t.Fatalf("candidate not recycled: spare %d, want %d", len(h0.spare), spares+1)
	}
	// The queue must still be fully functional with the recycled candidate
	// back in circulation.
	h0.Enqueue(3)
	for _, want := range []int{1, 2, 3} {
		v, ok := h0.Dequeue()
		if !ok || v != want {
			t.Fatalf("dequeue = (%d, %v), want %d", v, ok, want)
		}
	}
}
