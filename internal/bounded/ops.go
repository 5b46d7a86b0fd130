package bounded

// This file implements the write path of the bounded-space queue: Enqueue,
// Dequeue, Append, Propagate, Refresh, CreateBlock and AddBlock (Figure 5,
// lines 201-267 and 307-324). Garbage collection and helping live in gc.go,
// the dequeue read path in search.go.

import (
	"runtime"

	"repro/internal/metrics"
)

// Enqueue adds e to the back of the queue. It is the m=1 case of
// EnqueueBatch: both install one leaf block through the same append path.
// The block is built inline, with no transient slice.
func (h *Handle[T]) Enqueue(e T) {
	h.counter.BeginOp()
	prev := h.last
	lb := &leafBlock[T]{
		block:   block{index: prev.index + 1, sumEnq: prev.sumEnq + 1, sumDeq: prev.sumDeq},
		element: e,
	}
	h.append(&lb.block)
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
	prev := h.last
	lb := &leafBlock[T]{
		block: block{index: prev.index + 1, sumEnq: prev.sumEnq + int64(len(es)), sumDeq: prev.sumDeq},
	}
	if len(es) == 1 {
		lb.element = es[0]
	} else {
		lb.elems = append([]T(nil), es...)
	}
	h.append(&lb.block)
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
	prev := h.last
	lb := &leafBlock[T]{
		block:    block{index: prev.index + 1, sumEnq: prev.sumEnq, sumDeq: prev.sumDeq + n},
		isDeq:    true,
		deqCount: n,
	}
	h.append(&lb.block)

	res, err := h.completeDeqN(h.leaf, lb.index, n)
	if err != nil {
		// A needed block was garbage collected, which (Invariant 27 /
		// Lemma 28) implies a helper already computed our response and
		// wrote it into our leaf block.
		res = h.awaitResponse(lb)
	}
	return res
}

// awaitResponse fetches the dequeue response written by a helper. By
// Invariant 27 the response is written before any of our blocks is dropped,
// so the fast path is a single load; the bounded spin tolerates
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

// append installs b, whose index follows the handle's newest leaf block, at
// the handle's leaf and propagates it to the root (Append, lines 218-221).
// The leaf has a single writer, so a plain store installs the block; the
// head advance still goes through casHead, because a Refresh above may have
// helped it along already.
func (h *Handle[T]) append(b *block) {
	leaf := h.leaf
	h.addBlock(leaf, h.last, b)
	h.last = b
	h.casHead(leaf, b.index)
	h.propagate(leaf.parent)
}

// propagate ensures blocks in v's children reach the root via double
// Refresh (Propagate, lines 249-257). If the first Refresh fails, a second
// one is enough: any Refresh that succeeded in between has propagated our
// block (Lemma 10).
func (h *Handle[T]) propagate(v *node) {
	for v != nil {
		if !h.refresh(v) {
			h.refresh(v)
		}
		v = v.parent
	}
}

// refresh tries to install in v's slot at its head a new block representing
// the children's unpropagated operations, as core's Refresh does (lines
// 258-267): it first advances a child whose head lags behind an installed
// block, so that the child heads it reads are up to date, then CASes the
// block in and advances v's head past the slot, whoever filled it. It
// returns true if no new block was needed or its CAS won.
//
// A block it reads can already be dropped when its reads are stale. Then
// v's slot at hd is filled (DESIGN.md, the block store), so the Refresh
// counts as lost: it advances the head and returns false, as a lost CAS
// does, and Lemma 10's second Refresh runs.
func (h *Handle[T]) refresh(v *node) bool {
	hd := h.readHead(v)
	var heads [2]int64
	for c, child := range [2]*node{v.left, v.right} {
		ch := h.readHead(child)
		if child.blocks.load(ch, h.counter) != nil {
			h.casHead(child, ch)
			ch = h.readHead(child)
		}
		heads[c] = ch
	}
	won := false
	prev, err := h.readBlock(v, hd-1)
	if err == nil {
		var b *block
		if b, err = h.createBlock(v, prev, heads[0], heads[1]); err == nil {
			if b == nil {
				return true
			}
			if won = h.addBlock(v, prev, b); !won {
				// A candidate that lost its CAS was never reachable from
				// the store, so it is still private and recyclable.
				h.recycle(v, b)
			}
		}
	}
	h.casHead(v, hd)
	return won
}

// createBlock builds the candidate block that follows prev in v
// (CreateBlock, lines 307-324), given the child heads the Refresh read. It
// returns nil if the children hold no new operations, and errDiscarded if
// a child block it needs was dropped.
func (h *Handle[T]) createBlock(v *node, prev *block, headLeft, headRight int64) (*block, error) {
	lastLeft, err := h.readBlock(v.left, headLeft-1)
	if err != nil {
		return nil, err
	}
	lastRight, err := h.readBlock(v.right, headRight-1)
	if err != nil {
		return nil, err
	}
	sumEnq := lastLeft.sumEnq + lastRight.sumEnq
	sumDeq := lastLeft.sumDeq + lastRight.sumDeq
	// Decide before allocating: the frequent nothing-to-propagate case must
	// not touch the arena at all.
	if sumEnq == prev.sumEnq && sumDeq == prev.sumDeq {
		return nil, nil
	}
	b := h.newBlock(v)
	b.index = prev.index + 1
	b.endLeft = headLeft - 1
	b.endRight = headRight - 1
	b.sumEnq = sumEnq
	b.sumDeq = sumDeq
	if v.isRoot() {
		b.size = max(prev.size+(sumEnq-prev.sumEnq)-(sumDeq-prev.sumDeq), 0)
	}
	return b, nil
}

// addBlock installs b, which follows prev in v, first running a
// garbage-collection phase when the install crosses a multiple of G in the
// node's cumulative *operation* count (AddBlock, lines 222-233). The
// paper triggers on every G-th block; with multi-op batch blocks that would
// stretch the collection interval by the batch size and let live space grow
// proportionally, so the trigger counts operations (sumEnq+sumDeq)
// instead. For single-op histories the two rules coincide at the leaves
// (index == op count there), and the Theorem 31 space bound keeps the same
// +G slack either way. The drop stands whether or not the install wins: a
// drop is monotone and idempotent. It reports whether b was installed.
func (h *Handle[T]) addBlock(v *node, prev, b *block) bool {
	g := h.queue.gcEvery
	if (b.sumEnq+b.sumDeq)/g > (prev.sumEnq+prev.sumDeq)/g {
		s := h.splitIndex(v)
		h.help()
		v.blocks.drop(s, h.counter)
	}
	return v.blocks.install(b, !v.isLeaf(), h.counter)
}

// --- instrumented shared-memory accessors ---
//
// Every shared access goes through these helpers or the store's methods,
// which count each load, store and CAS they make, so the step counts are
// counted, not charged.

// readHead loads v.head.
func (h *Handle[T]) readHead(v *node) int64 {
	h.counter.Read(1)
	return v.head.Load()
}

// casHead tries to advance v.head from hd to hd+1.
func (h *Handle[T]) casHead(v *node, hd int64) {
	h.counter.CAS(v.head.CompareAndSwap(hd, hd+1))
}

// readBlock returns v's block at index i, which the caller knows was
// installed; errDiscarded means GC dropped it.
func (h *Handle[T]) readBlock(v *node, i int64) (*block, error) {
	p := v.blocks.load(i, h.counter)
	if p == nil || p == tomb {
		return nil, errDiscarded
	}
	return (*block)(p), nil
}

// findFirst returns v's lowest-indexed block satisfying the monotone
// predicate and the block before it, searching from hint, the index the
// caller expects the answer at or near (see store.findFirst). errDiscarded
// means no block satisfies pred, or the one before was dropped, so the
// block searched for may be gone and the search slid past it.
func (h *Handle[T]) findFirst(v *node, hint int64, pred func(*block) bool) (b, prev *block, err error) {
	b, p, ok := v.blocks.findFirst(hint, pred, h.counter)
	if !ok || p == tomb {
		return nil, nil, errDiscarded
	}
	return b, (*block)(p), nil
}

// newest returns v's block below its head. That block is never dropped
// while it is below the head, so newest only retries when GC phases ran
// past the head it read.
func (h *Handle[T]) newest(v *node) *block {
	for {
		if b, err := h.readBlock(v, h.readHead(v)-1); err == nil {
			return b
		}
	}
}

// oldest returns v's oldest live block. There always is one, the block
// below v's head, which no drop reaches, so the search cannot come back
// empty.
func (h *Handle[T]) oldest(v *node) *block {
	h.counter.Read(1)
	b, _, _ := v.blocks.findFirst(v.blocks.lo.Load(), func(*block) bool { return true }, h.counter)
	return b
}
