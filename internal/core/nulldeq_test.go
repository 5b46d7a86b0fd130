package core

// Deterministic tests of null-dequeue semantics inside a single block: the
// paper linearizes each block's enqueues before its dequeues, so when a
// block carries more dequeues than the queue holds, the size field clamps
// at zero (line 50) and FindResponse classifies exactly the right dequeues
// as null (lines 86-87). These boundary cases are scheduled explicitly with
// the step hooks, so the block composition is exact.

import "testing"

// TestNullDequeueWithinBlock groups one enqueue and three dequeues from
// different processes into a single root block on an empty queue: within
// the block the enqueue linearizes first, so exactly one dequeue succeeds.
func TestNullDequeueWithinBlock(t *testing.T) {
	q, err := New[string](4)
	if err != nil {
		t.Fatal(err)
	}
	h := make([]*Handle[string], 4)
	for i := range h {
		h[i] = q.MustHandle(i)
	}
	h[0].StepEnqueue("only")
	d1 := h[1].StepDequeue()
	d2 := h[2].StepDequeue()
	d3 := h[3].StepDequeue()
	// One refresh per internal level groups everything into one root block.
	for _, path := range []string{"L", "R", ""} {
		if ok, err := q.StepRefresh(h[0], path); err != nil || !ok {
			t.Fatalf("refresh %q = (%v, %v)", path, ok, err)
		}
	}
	root := &q.tree()[rootIdx]
	if got := root.head.Load(); got != 2 {
		t.Fatalf("root head = %d, want 2 (single block)", got)
	}
	blk := root.blocks.Get(1)
	if blk.numEnqueues(root.blocks.Get(0)) != 1 || blk.numDequeues(root.blocks.Get(0)) != 3 {
		t.Fatalf("root block has (%d enq, %d deq), want (1, 3)",
			blk.numEnqueues(root.blocks.Get(0)), blk.numDequeues(root.blocks.Get(0)))
	}
	if blk.size() != 0 {
		t.Fatalf("block size = %d, want 0 (clamped)", blk.size())
	}

	// D(B) orders leaves left to right: P1's dequeue is first and wins.
	v, ok := h[1].StepFinishDequeue(d1)
	if !ok || v != "only" {
		t.Fatalf("first dequeue in block = (%q, %v), want the enqueued value", v, ok)
	}
	if _, ok := h[2].StepFinishDequeue(d2); ok {
		t.Fatal("second dequeue in block should be null")
	}
	if _, ok := h[3].StepFinishDequeue(d3); ok {
		t.Fatal("third dequeue in block should be null")
	}
}

// TestSizeClampRecovery drives size to zero with surplus dequeues, then
// verifies subsequent enqueues are dequeued correctly (the clamp must not
// corrupt the non-null dequeue ranking of line 89).
func TestSizeClampRecovery(t *testing.T) {
	q, err := New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := q.MustHandle(0), q.MustHandle(1)
	// Surplus dequeues grouped with one enqueue.
	a.StepEnqueue(10)
	d1 := a.StepDequeue()
	a.StepPropagate()
	d2 := b.StepDequeue()
	b.StepPropagate()
	if v, ok := a.StepFinishDequeue(d1); !ok || v != 10 {
		t.Fatalf("d1 = (%d, %v)", v, ok)
	}
	if _, ok := b.StepFinishDequeue(d2); ok {
		t.Fatal("d2 should be null")
	}
	// Recovery: normal FIFO behaviour afterwards.
	for i := 0; i < 20; i++ {
		a.Enqueue(100 + i)
	}
	for i := 0; i < 20; i++ {
		v, ok := b.Dequeue()
		if !ok || v != 100+i {
			t.Fatalf("recovery dequeue %d = (%d, %v)", i, v, ok)
		}
	}
}

// TestInterleavedNullAndRealDequeues alternates null and successful
// dequeues across blocks, checking the non-null rank bookkeeping
// (sumenq - size) across a long history.
func TestInterleavedNullAndRealDequeues(t *testing.T) {
	q, err := New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	for round := 0; round < 60; round++ {
		if _, ok := h.Dequeue(); ok {
			t.Fatalf("round %d: dequeue on empty succeeded", round)
		}
		h.Enqueue(round * 2)
		h.Enqueue(round*2 + 1)
		v1, ok1 := h.Dequeue()
		v2, ok2 := h.Dequeue()
		if !ok1 || !ok2 || v1 != round*2 || v2 != round*2+1 {
			t.Fatalf("round %d: (%d,%v) (%d,%v)", round, v1, ok1, v2, ok2)
		}
	}
}
