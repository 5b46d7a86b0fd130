package bounded

// This file implements the write path of the bounded-space queue: Enqueue,
// Dequeue, Append, Propagate, Refresh, CreateBlock and AddBlock (Figure 5,
// lines 201-267 and 307-324). Garbage collection and helping live in gc.go,
// the dequeue read path in search.go.

import (
	"math"
	"math/bits"
	"runtime"

	"repro/internal/metrics"
)

// Enqueue adds e to the back of the queue. It is the m=1 case of
// EnqueueBatch: both install one leaf block through the same append path.
// The block is built inline, with no transient slice.
func (h *Handle[T]) Enqueue(e T) {
	h.counter.BeginOp()
	t := h.loadTree(h.leaf)
	_, prev := h.treeMax(t)
	lb := &leafBlock[T]{
		block:   block{index: prev.index + 1, sumEnq: prev.sumEnq + 1, sumDeq: prev.sumDeq},
		element: e,
	}
	h.append(t, prev, &lb.block)
	h.counter.EndOp(metrics.OpEnqueue)
}

// EnqueueBatch adds the elements of es to the back of the queue as one
// multi-op leaf block: all len(es) enqueues share a single append,
// propagation pass, and (amortized) GC phase. The elements are linearized
// consecutively in slice order. es is copied; the caller keeps ownership.
func (h *Handle[T]) EnqueueBatch(es []T) {
	if len(es) == 0 {
		return
	}
	h.counter.BeginOp()
	h.enqueueBlock(es)
	h.counter.EndBatch(int64(len(es)), 0, 0)
}

// enqueueBlock installs one leaf block carrying the len(es) >= 1 enqueues
// of es and propagates it to the root.
func (h *Handle[T]) enqueueBlock(es []T) {
	t := h.loadTree(h.leaf)
	_, prev := h.treeMax(t)
	lb := &leafBlock[T]{
		block: block{index: prev.index + 1, sumEnq: prev.sumEnq + int64(len(es)), sumDeq: prev.sumDeq},
	}
	if len(es) == 1 {
		lb.element = es[0]
	} else {
		lb.elems = append([]T(nil), es...)
	}
	h.append(t, prev, &lb.block)
}

// Dequeue removes and returns the element at the front of the queue; ok is
// false if the queue was empty at the linearization point. It is the n=1
// case of DequeueBatch.
func (h *Handle[T]) Dequeue() (T, bool) {
	h.counter.BeginOp()
	res := h.dequeueBlock(1)
	if res.ok {
		h.counter.EndOp(metrics.OpDequeue)
	} else {
		h.counter.EndOp(metrics.OpNullDequeue)
	}
	return res.val, res.ok
}

// DequeueBatch removes up to n elements from the front of the queue in one
// multi-op leaf block and one propagation pass, returning them in FIFO
// order with their count. A count below n means the queue was empty when
// the (count+1)-th dequeue of the batch took effect. All n dequeues
// linearize consecutively (one leaf block lands in one root block), so the
// batch's null dequeues are always a suffix.
func (h *Handle[T]) DequeueBatch(n int) ([]T, int) {
	if n <= 0 {
		return nil, 0
	}
	h.counter.BeginOp()
	res := h.dequeueBlock(int64(n))
	vals := res.vals
	if vals == nil && res.ok {
		vals = []T{res.val} // n == 1 responses carry the value inline
	}
	h.counter.EndBatch(0, int64(len(vals)), int64(n-len(vals)))
	return vals, len(vals)
}

// DequeueBatchAppend is DequeueBatch appending into dst. The response's
// value slice may be helper-published shared storage, so the elements are
// copied into dst — never handed out by reference — and the (possibly
// grown) slice is returned with the count appended.
func (h *Handle[T]) DequeueBatchAppend(dst []T, n int) ([]T, int) {
	if n <= 0 {
		return dst, 0
	}
	h.counter.BeginOp()
	res := h.dequeueBlock(int64(n))
	got := 0
	switch {
	case res.vals != nil:
		dst = append(dst, res.vals...)
		got = len(res.vals)
	case res.ok:
		dst = append(dst, res.val) // n == 1 responses carry the value inline
		got = 1
	}
	h.counter.EndBatch(0, int64(got), int64(n-got))
	return dst, got
}

// dequeueBlock installs one leaf block carrying n dequeues, propagates it,
// and computes the batch's response (falling back to the GC helpers'
// published response when the needed blocks were already discarded).
func (h *Handle[T]) dequeueBlock(n int64) response[T] {
	t := h.loadTree(h.leaf)
	_, prev := h.treeMax(t)
	lb := &leafBlock[T]{
		block:    block{index: prev.index + 1, sumEnq: prev.sumEnq, sumDeq: prev.sumDeq + n},
		isDeq:    true,
		deqCount: n,
	}
	h.append(t, prev, &lb.block)

	res, err := h.completeDeqN(h.leaf, lb.index, n)
	if err != nil {
		// A needed block was garbage collected, which (Invariant 27 /
		// Lemma 28) implies a helper already computed our response and
		// wrote it into our leaf block. The loop guards against the
		// tiny window between the GC's helping pass and its tree install
		// becoming visible to us.
		res = h.awaitResponse(lb)
	}
	return res
}

// awaitResponse fetches the dequeue response written by a helper. By
// Invariant 27 the response is written before any tree missing our blocks is
// installed, so the fast path is a single load; the bounded spin tolerates
// nothing and exists purely to convert an algorithmic bug into a clear
// failure rather than a wrong answer.
func (h *Handle[T]) awaitResponse(b *leafBlock[T]) response[T] {
	for spin := 0; ; spin++ {
		h.counter.Read(1)
		if r := b.response.Load(); r != nil {
			return *r
		}
		if spin > 1<<26 {
			panic("bounded: dequeue response missing after GC discarded its blocks (invariant violation)")
		}
		runtime.Gosched()
	}
}

// append installs b as the next block of the handle's leaf (single writer)
// and propagates it to the root (Append, lines 218-221). t is the leaf tree
// the block was built against, prev its current max block.
func (h *Handle[T]) append(t *blockTree, prev, b *block) {
	t2 := h.addBlock(h.leaf, t, prev, b)
	h.storeTree(h.leaf, t2)
	h.propagate(h.leaf.parent)
}

// propagate ensures blocks in v's children reach the root via double
// Refresh (Propagate, lines 249-257).
func (h *Handle[T]) propagate(v *node) {
	for v != nil {
		if !h.refresh(v) {
			h.refresh(v)
		}
		v = v.parent
	}
}

// refresh tries to install a new block tree on v containing one new block
// that represents the children's unpropagated operations (Refresh, lines
// 258-267).
func (h *Handle[T]) refresh(v *node) bool {
	t := h.loadTree(v)
	_, last := h.treeMax(t)
	b := h.createBlock(v, t, last)
	if b == nil {
		return true
	}
	t2 := h.addBlock(v, t, last, b)
	if h.casTree(v, t, t2) {
		return true
	}
	// The candidate was only reachable from t2, which just lost the CAS
	// and is discarded along with it — b is still private and recyclable.
	h.recycle(v, b)
	return false
}

// createBlock builds the candidate block with index last.index+1
// (CreateBlock, lines 307-324). It returns nil if the children hold no new
// operations. Each child's tree is loaded once so the max lookup and the
// prefix-sum reads see one consistent snapshot.
func (h *Handle[T]) createBlock(v *node, t *blockTree, prev *block) *block {
	lt := h.loadTree(v.left)
	rt := h.loadTree(v.right)
	_, lastLeft := h.treeMax(lt)
	_, lastRight := h.treeMax(rt)
	sumEnq := lastLeft.sumEnq + lastRight.sumEnq
	sumDeq := lastLeft.sumDeq + lastRight.sumDeq
	// Decide before allocating: the frequent nothing-to-propagate case must
	// not touch the arena at all.
	if sumEnq == prev.sumEnq && sumDeq == prev.sumDeq {
		return nil
	}
	b := h.newBlock(v)
	b.index = prev.index + 1
	b.endLeft = lastLeft.index
	b.endRight = lastRight.index
	b.sumEnq = sumEnq
	b.sumDeq = sumDeq
	if v.isRoot() {
		b.size = prev.size + (sumEnq - prev.sumEnq) - (sumDeq - prev.sumDeq)
		if b.size < 0 {
			b.size = 0
		}
	}
	return b
}

// addBlock inserts b into t, first running a garbage-collection phase when
// the insert crosses a multiple of G in the node's cumulative *operation*
// count (AddBlock, lines 222-233). The paper triggers on every G-th block;
// with multi-op batch blocks that would stretch the collection interval by
// the batch size and let live space grow proportionally, so the trigger
// counts operations (sumEnq+sumDeq) instead. For single-op histories the
// two rules coincide at the leaves (index == op count there), and the
// Theorem 31 space bound keeps the same +G slack either way.
func (h *Handle[T]) addBlock(v *node, t *blockTree, prev, b *block) *blockTree {
	g := h.queue.gcEvery
	if (b.sumEnq+b.sumDeq)/g > (prev.sumEnq+prev.sumDeq)/g {
		s := h.splitIndex(v)
		h.help()
		t = h.treeDropBelow(t, s)
	}
	return h.treeInsert(t, b)
}

// --- instrumented shared-memory / tree accessors ---
//
// Tree searches, inserts and splits are charged ceil(log2(size))+1 steps:
// the number of tree-node reads an operation on the paper's balanced BST
// performs, matching the cost model of Theorem 32 whatever persistent
// structure pbst uses underneath.

func treeOpCost(t *blockTree) int64 {
	return int64(bits.Len64(uint64(t.Size()))) + 1
}

// loadTree reads v's current block tree pointer.
func (h *Handle[T]) loadTree(v *node) *blockTree {
	h.counter.Read(1)
	return v.blocks.Load()
}

// storeTree publishes t on the handle's own leaf (single writer).
func (h *Handle[T]) storeTree(v *node, t *blockTree) {
	h.counter.Write()
	v.blocks.Store(t)
}

// casTree tries to swing v's tree pointer from old to new.
func (h *Handle[T]) casTree(v *node, old, new *blockTree) bool {
	ok := v.blocks.CompareAndSwap(old, new)
	h.counter.CAS(ok)
	return ok
}

// treeMax returns the block with the largest index (never absent: trees
// always contain at least one block, Corollary 25).
func (h *Handle[T]) treeMax(t *blockTree) (int64, *block) {
	h.counter.Read(1)
	k, b, ok := t.Max()
	if !ok {
		panic("bounded: empty block tree (invariant violation)")
	}
	return k, b
}

// treeMin returns the block with the smallest index.
func (h *Handle[T]) treeMin(t *blockTree) (int64, *block) {
	h.counter.Read(1)
	k, b, ok := t.Min()
	if !ok {
		panic("bounded: empty block tree (invariant violation)")
	}
	return k, b
}

// treeGet looks up the block with the given index; a miss means GC
// discarded it.
func (h *Handle[T]) treeGet(t *blockTree, index int64) (*block, error) {
	h.counter.Read(treeOpCost(t))
	b, ok := t.Get(index)
	if !ok {
		return nil, errDiscarded
	}
	return b, nil
}

// treeInsert returns t with b, whose index follows t's largest, added.
func (h *Handle[T]) treeInsert(t *blockTree, b *block) *blockTree {
	h.counter.Read(treeOpCost(t))
	return t.Append(b.index, b)
}

// treeDropBelow returns t without blocks of index < bound (the paper's
// Split).
func (h *Handle[T]) treeDropBelow(t *blockTree, bound int64) *blockTree {
	h.counter.Read(treeOpCost(t))
	return t.DropBelow(bound)
}

// treeFindFirst returns the lowest-indexed block satisfying the monotone
// predicate, searching from hint, the index the caller expects the answer
// at or near (any hint gives the same answer; newest starts at the tree's
// largest index). It is charged the paper's search cost whatever the hint.
func (h *Handle[T]) treeFindFirst(t *blockTree, hint int64, pred func(*block) bool) (*block, bool) {
	h.counter.Read(treeOpCost(t))
	_, b, ok := t.FindFirst(hint, pred)
	return b, ok
}

// newest is the search hint for the block with the largest index:
// pbst.Seq.FindFirst clamps a hint to the tree's range.
const newest = math.MaxInt64
