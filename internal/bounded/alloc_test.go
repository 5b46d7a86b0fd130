package bounded

// Allocation regression gates for the bounded variant. A node's blocks sit
// in its store's write-once chunks (store.go): an install writes one slot,
// and a 512-byte chunk is allocated once per 64 installs. An internal
// node's block is a pointer-free 48-byte block, which the Go collector
// never scans, carved from a per-handle slab of 64 blocks that holds one
// node's blocks (pool.go), so it costs 1/64 of an allocation; a Refresh
// candidate that lost its CAS is un-carved. A leaf's block is a leafBlock
// heap object of its own (112 bytes for an int payload). An
// Enqueue;Dequeue pair installs one block per level per op, so the floor is
// one leaf block per op, and the bytes grow with log2 p: a slab block and
// 1/64 of a chunk per level. The gate pins that floor at three tree
// heights, which catches a second object per install creeping in, and pins
// the bytes, which catch a block or chunk growing; TestBlockPointerFree
// keeps internal blocks out of the scanned size classes, and the white-box
// tests check the un-carve.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/metrics"
)

func TestAllocsBoundedPair(t *testing.T) {
	// Measured 2 allocs per pair at p = 4, 8, 16 and 17: the two leaf
	// blocks; slabs and chunks amortise below one allocation per pair.
	// Measured 467, 580 and 693 bytes per pair at p = 4, 8 and 16: two
	// leafBlocks, a 48-byte slab block per internal level per op and the
	// amortised chunks. The allocation ceilings are the measured counts
	// and the byte ceilings those +10%. p=4 is the tree a shard fabric
	// starts with, p=8 the one lib-bounded-prodcons's shards grow to and
	// p=16 the one a fabric grows to at its default cap of 16 slots. At
	// p=17 handle 0 sits at depth 4, as at p=16, and measures 2 allocs and
	// 693 bytes, so it gets p=16's ceilings.
	for _, c := range []struct {
		procs          int
		ceiling, bytes float64
	}{{4, 2, 514}, {8, 2, 638}, {16, 2, 762}, {17, 2, 762}} {
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

// TestBlockPointerFree keeps internal-node blocks in the size classes the Go
// collector never scans: a field that holds a pointer, in any guise, would
// put every internal block an install allocates back on the mark queue.
func TestBlockPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: internal blocks must hold no pointers", path, typ.Kind())
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("block", reflect.TypeFor[block]())
	if n := unsafe.Sizeof(block{}); n != 48 {
		t.Errorf("sizeof(block) = %d bytes, want 48", n)
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
// per value, each enqueued or dequeued value being one op, and every load,
// store and CAS of a store is counted. Measured at m=32: 4 allocs (the two
// leaf blocks, the batch's copy of its values and the response's value
// slice) and 4.40 steps per value, because a batch reads its values leaf
// block by leaf block. At m=1 the walk makes FindResponse's calls exactly,
// and a single goroutine makes the count exact: 241,239 steps over 2,000
// values.
func TestAllocsBoundedBatchPair(t *testing.T) {
	h, pair := batchPair(t, 32)
	avg := testing.AllocsPerRun(1000, pair)
	t.Logf("m=32: %.2f allocs per pair", avg)
	if avg > 4 {
		t.Errorf("allocs per bounded batch pair at m=32 = %.2f, want <= 4", avg)
	}
	if steps, vals := countSteps(h, pair); steps > 12*vals {
		t.Errorf("steps per value at m=32 = %.2f, want <= 12", float64(steps)/float64(vals))
	}
	if steps, vals := countSteps(batchPair(t, 1)); steps != 241239 || vals != 2000 {
		t.Errorf("m=1: %d steps over %d values, want 241239 over 2000", steps, vals)
	}
}

// TestAllocsBoundedHistory pins what a node's history costs: the exact
// counted steps of the m=1 batch-pair loop (p=16, depth 1,024) over 1,000
// pairs, once after 2,000 pairs and once after historyPairs. Every node on
// handle 0's path installs two blocks per pair, so at the first count
// their tries have two levels above the chunks and at 300,000 pairs, past
// index 2^18, three. The store's tail chunk keeps the hot loads off the
// trie, so only the cold ones pay the third level: 132.3 then 142.1 steps
// per op, where a store without the tail counts 196.9 then 237.0. A -race
// build stops at 10,000 pairs, still two levels deep, where the count
// repeats the first exactly.
func TestAllocsBoundedHistory(t *testing.T) {
	h, pair := batchPair(t, 1)
	for range 2000 {
		pair()
	}
	early, vals := countSteps(h, pair)
	for range historyPairs - 3000 {
		pair()
	}
	late, _ := countSteps(h, pair)
	t.Logf("steps per op after 2,000 pairs: %.1f; after %d: %.1f",
		float64(early)/float64(vals), historyPairs, float64(late)/float64(vals))
	const wantEarly = 264614
	wantLate := int64(284225)
	if raceEnabled {
		wantLate = wantEarly
	}
	if early != wantEarly || late != wantLate || vals != 2000 {
		t.Errorf("steps over %d values: %d after 2,000 pairs and %d after %d; want %d and %d over 2000",
			vals, early, late, historyPairs, wantEarly, wantLate)
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

// TestAllocsArenaReuse checks the arena mechanics deterministically: blocks
// come from one slab per level in carve order, and a recycled block is
// un-carved, so it is the next block carved at its level and comes back
// zeroed, also when it was the first block of a fresh slab.
func TestAllocsArenaReuse(t *testing.T) {
	q, err := New[int](4)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	v := h.leaf.parent
	b1 := h.newBlock(v)
	*b1 = block{index: 9, sumEnq: 5, sumDeq: 4, endLeft: 3, endRight: 2, size: 1}
	h.recycle(v, b1)
	if b2 := h.newBlock(v); b2 != b1 || *b2 != (block{}) {
		t.Fatalf("carve after recycle handed out %p (%+v), want the recycled %p zeroed", b2, *b2, b1)
	}
	if r := h.newBlock(q.root.Load()); r == &h.slabs[v.depth].blocks[1] {
		t.Fatal("the root's block came from its child's slab")
	}
	for i := 1; i < slabBlocks; i++ {
		if b := h.newBlock(v); b != &h.slabs[v.depth].blocks[i] || *b != (block{}) {
			t.Fatalf("carve %d handed out %p (%+v), want slot %d of the level's slab, zeroed", i, b, *b, i)
		}
	}
	full := h.slabs[v.depth].blocks
	fresh := h.newBlock(v)
	if h.slabs[v.depth].blocks == full || fresh != &h.slabs[v.depth].blocks[0] {
		t.Fatal("a used-up slab was not replaced by a fresh one")
	}
	fresh.index = 7
	h.recycle(v, fresh)
	if b := h.newBlock(v); b != fresh || *b != (block{}) {
		t.Fatalf("carve after recycling a slab's first block handed out %p (%+v), want %p zeroed", b, *b, fresh)
	}
}

// TestLeafOfRoundTrip checks leafOf's invariant on every kind of block a
// leaf's store holds: each leaf's index-0 sentinel, and the blocks an
// Enqueue, an EnqueueBatch, a Dequeue and a DequeueBatch install. leafOf
// must give back the leafBlock whose head the stored block is, with the
// fields its operation wrote. Under -race, checkptr also checks that each
// conversion stays inside one allocation.
func TestLeafOfRoundTrip(t *testing.T) {
	q, err := New[int](4)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(1)
	// check converts leaf i's newest block and tests it with ok.
	check := func(what string, i int, ok func(*leafBlock[int]) bool) {
		t.Helper()
		b := q.MustHandle(0).newest(q.leaves[i])
		lb := leafOf[int](b)
		if &lb.block != b || !ok(lb) {
			t.Fatalf("leaf %d's %s: %+v element=%d elems=%v isDeq=%v deqCount=%d", i, what,
				lb.block, lb.element, lb.elems, lb.isDeq, lb.deqCount)
		}
	}
	for i := range q.leaves {
		check("sentinel", i, func(lb *leafBlock[int]) bool {
			return lb.block == block{} && !lb.isDeq && lb.elems == nil && lb.response.Load() == nil
		})
	}
	h.Enqueue(5)
	check("enqueue block", 1, func(lb *leafBlock[int]) bool {
		return lb.index == 1 && lb.element == 5 && lb.numEnq() == 1 && !lb.isDeq
	})
	h.EnqueueBatch([]int{6, 7, 8})
	check("batch enqueue block", 1, func(lb *leafBlock[int]) bool {
		return lb.sumEnq == 4 && lb.numEnq() == 3 && lb.enqAt(1) == 6 && lb.enqAt(3) == 8
	})
	if v, ok := h.Dequeue(); !ok || v != 5 {
		t.Fatalf("Dequeue = (%d, %v), want (5, true)", v, ok)
	}
	check("dequeue block", 1, func(lb *leafBlock[int]) bool {
		return lb.sumDeq == 1 && lb.isDeq && lb.deqCount == 1
	})
	if vals, n := h.DequeueBatch(4); n != 3 || vals[0] != 6 || vals[2] != 8 {
		t.Fatalf("DequeueBatch(4) = %v, %d; want [6 7 8], 3", vals, n)
	}
	check("batch dequeue block", 1, func(lb *leafBlock[int]) bool {
		return lb.sumDeq == 5 && lb.isDeq && lb.deqCount == 4
	})
}

// TestDroppedQueueCollected checks that nothing outside a queue keeps it
// alive once its last reference is dropped: one collection must free it.
// The rounds draw internal blocks from the arena, so a per-queue structure
// the arena registers with the runtime, such as a pool field, shows up as a
// queue that survives.
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

// TestAllocsRefreshFailureRecycles drives refresh's CAS-failure path, which
// uniprocessor scheduling essentially never hits naturally: a handle reads
// the root's head, another handle's operation installs a root block in that
// slot, and the first handle's candidate, built from fresh child heads,
// must lose its CAS and be un-carved: the next block carved at the root is
// that candidate, zeroed.
func TestAllocsRefreshFailureRecycles(t *testing.T) {
	q, err := New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := q.MustHandle(0), q.MustHandle(1)
	h0.Enqueue(1) // seed so both root children have history

	// Stage the race: h0's Refresh at the root reads the head and the block
	// below it, then stalls while h1 runs a whole Enqueue, which fills that
	// slot. Resumed, h0 reads the child heads and runs the rest of
	// refresh's body: createBlock, then addBlock's CAS, which must lose.
	root := q.root.Load()
	hd := h0.readHead(root)
	prev, err := h0.readBlock(root, hd-1)
	if err != nil {
		t.Fatal(err)
	}
	h1.Enqueue(2)
	b, err := h0.createBlock(root, prev, h0.readHead(root.left), h0.readHead(root.right))
	if err != nil || b == nil {
		t.Fatalf("staged refresh built no candidate (err %v)", err)
	}
	if h0.addBlock(root, prev, b) {
		t.Fatal("stale CAS unexpectedly succeeded")
	}
	b.size = 5 // recycling must clear what createBlock wrote
	h0.recycle(root, b)
	if nb := h0.newBlock(root); nb != b || *nb != (block{}) {
		t.Fatalf("next carve at the root handed out %p (%+v), want the recycled candidate %p zeroed", nb, *nb, b)
	}
	h0.recycle(root, b)
	h0.casHead(root, hd)
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
