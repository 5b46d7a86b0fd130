package core

// Allocation regression gates for the block arena (pool.go). CI runs these
// via `go test -run TestAllocs`: a change that reintroduces per-op block
// allocation shows up as allocs/op jumping from ~0.1 back to ~depth.
// Internal-node blocks are pointer-free 40-byte innerBlocks, enqueue leaf
// blocks leafBlocks and dequeue leaf blocks bare 24-byte headers, each kind
// carved from its own per-handle slab; TestBlockPointerFree keeps the
// header and internal blocks out of the scanned size classes, and
// TestDroppedQueueCollected checks the arena holds nothing that outlives
// its queue.

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"
	"weak"

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
	// internal blocks, all drawn from the 64-block bump slabs: ~3 blocks per
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
	// 2.09 steps per value at m=32 (3.02 before the walk carried its
	// reads, 2.12 before the handle kept its leaf's last block). The ceiling catches any return to resolving each value on
	// its own, ~22 steps per value.
	steps, vals := countSteps(h, pair)
	t.Logf("m=32: %.2f steps per value", float64(steps)/float64(vals))
	if steps > 5*vals {
		t.Errorf("steps per value at m=32 = %.2f, want <= 5", float64(steps)/float64(vals))
	}
	// At m=1 the walk makes the paper's FindResponse calls, so the
	// single-op step count is pinned to the digit: 200,522 when every
	// search doubled back from b and every walk re-read the slots it held,
	// 134,150 with the hinted root search and the carried reads, 132,150
	// once an op stopped reading its leaf's last block (the handle keeps
	// it: one read fewer per op).
	h1, pair1 := batchPair(t, 1)
	if steps, vals := countSteps(h1, pair1); steps != 132150 || vals != 2000 {
		t.Errorf("m=1: %d steps over %d values, want 132150 over 2000", steps, vals)
	}
	// A pair installs an enqueue block, a 24-byte dequeue block and a
	// 40-byte block per internal level it propagates through: measured
	// 505.3 bytes per pair, against 632.6 when every block carried all six
	// words and 920.6 when every block also carried the leaf-only fields.
	// The ceiling catches any of those fields coming back.
	bytes := bytesPerRun(2000, pair1)
	t.Logf("m=1: %.1f bytes per pair", bytes)
	if bytes > 560 {
		t.Errorf("bytes per m=1 pair = %.1f, want <= 560", bytes)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after a warm-up call, at GOMAXPROCS
// 1 and with the collector off.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestBlockPointerFree keeps the header and internal-node blocks in the
// size classes the Go collector never scans: a field that holds a pointer,
// in any guise, would put every internal block and dequeue block an
// operation installs back on the mark queue. The sizes pin the split: a
// header of three words, and an internal block of the header plus two.
func TestBlockPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: headers and internal blocks must hold no pointers", path, typ.Kind())
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("block", reflect.TypeFor[block]())
	walk("innerBlock", reflect.TypeFor[innerBlock]())
	if n := unsafe.Sizeof(block{}); n != 24 {
		t.Errorf("sizeof(block) = %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(innerBlock{}); n != 40 {
		t.Errorf("sizeof(innerBlock) = %d bytes, want 40", n)
	}
}

// TestLeafOfRoundTrip checks leafOf's invariant on the blocks an Enqueue,
// an EnqueueBatch and a StepEnqueue install: leafOf must give back the
// leafBlock whose head the stored block is, with the fields its operation
// wrote. Only enqueue blocks are leafBlocks, so each leaf's index-0 dummy
// and the blocks a Dequeue and a DequeueBatch install are checked by their
// sums alone: widening a bare header is exactly what checkptr rejects.
// Under -race, checkptr also checks that each conversion stays inside one
// allocation.
func TestLeafOfRoundTrip(t *testing.T) {
	q, err := New[int](4)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(1)
	// newest returns leaf i's newest block and its predecessor.
	newest := func(i int) (b, prev *block) {
		n := &q.tree()[q.numLeaves+i]
		hd := n.head.Load()
		return n.blocks.Get(hd - 1), n.blocks.Get(max(hd-2, 0))
	}
	// check converts leaf i's newest block, which must be an enqueue
	// block, and tests it with ok.
	check := func(what string, i int, ok func(*leafBlock[int]) bool) {
		t.Helper()
		b, prev := newest(i)
		if b.sumEnq <= prev.sumEnq {
			t.Fatalf("leaf %d's %s: sums (%d, %d) after (%d, %d) are not an enqueue's",
				i, what, b.sumEnq, b.sumDeq, prev.sumEnq, prev.sumDeq)
		}
		lb := leafOf[int](b)
		if &lb.block != b || !ok(lb) {
			t.Fatalf("leaf %d's %s: sums (%d, %d) element=%d elems=%v", i, what,
				lb.sumEnq, lb.sumDeq, lb.element, lb.elems)
		}
	}
	// checkSums tests leaf i's newest block, a bare header, by its sums.
	checkSums := func(what string, i int, sumEnq, sumDeq int64) {
		t.Helper()
		if b, _ := newest(i); b.sumEnq != sumEnq || b.sumDeq != sumDeq {
			t.Fatalf("leaf %d's %s: sums (%d, %d), want (%d, %d)", i, what,
				b.sumEnq, b.sumDeq, sumEnq, sumDeq)
		}
	}
	for i := range q.numLeaves {
		checkSums("dummy", i, 0, 0)
		if b, _ := newest(i); b.sizeOrSuper.Load() != 0 {
			t.Fatalf("leaf %d's dummy has super %d, want 0", i, b.sizeOrSuper.Load())
		}
	}
	h.Enqueue(5)
	check("enqueue block", 1, func(lb *leafBlock[int]) bool {
		return lb.sumEnq == 1 && lb.element == 5 && lb.numEnq() == 1 && lb.elems == nil
	})
	h.EnqueueBatch([]int{6, 7, 8})
	check("batch enqueue block", 1, func(lb *leafBlock[int]) bool {
		return lb.sumEnq == 4 && lb.numEnq() == 3 && lb.enqAt(1) == 6 && lb.enqAt(3) == 8
	})
	if v, ok := h.Dequeue(); !ok || v != 5 {
		t.Fatalf("Dequeue = (%d, %v), want (5, true)", v, ok)
	}
	checkSums("dequeue block", 1, 4, 1)
	if vals, n := h.DequeueBatch(4); n != 3 || vals[0] != 6 || vals[2] != 8 {
		t.Fatalf("DequeueBatch(4) = %v, %d; want [6 7 8], 3", vals, n)
	}
	checkSums("batch dequeue block", 1, 4, 5)
	h2 := q.MustHandle(2)
	h2.StepEnqueue(9)
	check("step enqueue block", 2, func(lb *leafBlock[int]) bool {
		return lb.sumEnq == 1 && lb.element == 9 && lb.numEnq() == 1
	})
	h2.StepPropagate()
	if v, ok := h.Dequeue(); !ok || v != 9 {
		t.Fatalf("Dequeue after StepEnqueue = (%d, %v), want (9, true)", v, ok)
	}
}

// TestInnerOfRoundTrip checks innerOf's invariant on every block of every
// internal node after a short 4-process run, the index-0 dummies included:
// innerOf must give back the innerBlock whose head the stored block is,
// and its ends must satisfy Lemma 4 against the previous block's while
// staying inside the children's installed blocks. Under -race, checkptr
// checks that each conversion stays inside one allocation.
func TestInnerOfRoundTrip(t *testing.T) {
	q := runConcurrent(t, 4, 300, 9)
	for v := rootIdx; v < q.numLeaves; v++ {
		n := &q.tree()[v]
		var prev *innerBlock
		for i := int64(0); ; i++ {
			b := n.blocks.Get(i)
			if b == nil {
				break
			}
			ib := innerOf(b)
			switch {
			case &ib.block != b:
				t.Fatalf("node %d block %d: innerOf moved the header", v, i)
			case i == 0 && (ib.endLeft != 0 || ib.endRight != 0):
				t.Fatalf("node %d dummy: ends (%d, %d), want (0, 0)", v, ib.endLeft, ib.endRight)
			case i > 0 && (ib.endLeft < prev.endLeft || ib.endRight < prev.endRight):
				t.Fatalf("node %d block %d: ends (%d, %d) below previous (%d, %d)",
					v, i, ib.endLeft, ib.endRight, prev.endLeft, prev.endRight)
			case q.tree()[2*v].blocks.Get(ib.endLeft) == nil ||
				q.tree()[2*v+1].blocks.Get(ib.endRight) == nil:
				t.Fatalf("node %d block %d: ends (%d, %d) past the children's blocks",
					v, i, ib.endLeft, ib.endRight)
			}
			prev = ib
		}
		if n.head.Load() < 2 {
			t.Fatalf("node %d: no block installed", v)
		}
	}
}

// TestDroppedQueueCollected checks that nothing outside a queue keeps it
// alive once its last reference is dropped: one collection must free it.
// The rounds draw leaf and internal blocks from the arena, so a per-queue
// structure the arena registers with the runtime, such as a pool field,
// shows up as a queue that survives.
func TestDroppedQueueCollected(t *testing.T) {
	wp := func() weak.Pointer[Queue[int]] {
		q, err := New[int](4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 1000 {
			q.MustHandle(i % 4).Enqueue(i)
			q.MustHandle((i + 1) % 4).Enqueue(i)
			q.MustHandle((i + 2) % 4).Dequeue()
		}
		return weak.Make(q)
	}()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a dropped queue survived one runtime.GC()")
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
