package core

// This file implements the write path of the queue: Enqueue, Dequeue,
// Append, Propagate, Refresh, CreateBlock and Advance (Figure 4 of the
// paper, lines 1-64).
//
// The write path, like the read path, does not read back what it holds: an
// operation reads its leaf's head once and takes its leaf's previous block
// from the handle (Handle.last), advance takes the block its caller just
// stored, installed or found in Refresh's help check, and Refresh hands
// createBlock the child heads its help check read.
//
// Tree nodes are heap indices into Queue.nodes (see node.go): parent is
// v>>1, children are 2v and 2v+1, the root is rootIdx.
//
// All shared-memory accesses go through the small helpers at the bottom of
// the file so that step counting (the paper's cost model) is exact and
// uniform.

import "repro/internal/metrics"

// Enqueue adds e to the back of the queue. It completes in O(log p)
// shared-memory steps and O(log p) CAS instructions regardless of
// scheduling. Enqueue is the m=1 case of EnqueueBatch: both install one
// leaf block through the same append/propagate path. The block comes from
// the handle's leaf slab and the element is stored inline, so the
// allocation-free fast path of pool.go applies.
func (h *Handle[T]) Enqueue(e T) {
	h.counter.BeginOp()
	hd := h.readHead(h.leaf)
	prev := h.last
	b := h.newLeaf()
	b.sumEnq = prev.sumEnq + 1
	b.sumDeq = prev.sumDeq
	b.element = e
	h.append(hd, &b.block)
	h.counter.EndOp(metrics.OpEnqueue)
}

// EnqueueBatch adds the elements of es to the back of the queue as one
// multi-op leaf block: all len(es) enqueues ride a single append and a
// single O(log p) propagation pass, so the tree walk and its CAS traffic
// are amortized over the batch (the paper's blocks carry operation *sets*;
// this exposes that capacity to callers). The elements are linearized
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
	hd := h.readHead(h.leaf)
	prev := h.last
	b := h.newLeaf()
	b.sumEnq = prev.sumEnq + int64(len(es))
	b.sumDeq = prev.sumDeq
	if len(es) == 1 {
		b.element = es[0]
	} else {
		b.elems = append([]T(nil), es...)
	}
	h.append(hd, &b.block)
}

// Dequeue removes and returns the element at the front of the queue. The
// second result is false if the queue was empty at the dequeue's
// linearization point (the paper's "null dequeue"), in which case the first
// result is the zero value of T. Dequeue is the n=1 case of DequeueBatch.
func (h *Handle[T]) Dequeue() (T, bool) {
	h.counter.BeginOp()
	v, _, k := h.completeDeqN(h.dequeueBlock(1), 1, nil)
	if k > 0 {
		h.counter.EndOp(metrics.OpDequeue)
	} else {
		h.counter.EndOp(metrics.OpNullDequeue)
	}
	return v, k > 0
}

// DequeueBatch removes up to n elements from the front of the queue in one
// multi-op leaf block and one propagation pass. It returns the removed
// elements in FIFO order and their count; a count below n means the queue
// was empty when the (count+1)-th dequeue of the batch took effect.
//
// All n dequeues linearize consecutively (they are one block, so they land
// in one root block), which has two useful consequences: the batch's null
// dequeues are always a suffix, and its values are consecutive enqueue
// ranks, read leaf block by leaf block after one IndexDequeue walk.
func (h *Handle[T]) DequeueBatch(n int) ([]T, int) {
	return h.DequeueBatchAppend(nil, n)
}

// DequeueBatchAppend is DequeueBatch appending into dst, so a caller that
// batch-dequeues in a loop can reuse one result slice instead of paying a
// fresh allocation per batch. Returns the (possibly grown) slice and the
// count appended.
func (h *Handle[T]) DequeueBatchAppend(dst []T, n int) ([]T, int) {
	if n <= 0 {
		return dst, 0
	}
	h.counter.BeginOp()
	v, dst, k := h.completeDeqN(h.dequeueBlock(int64(n)), int64(n), dst)
	if n == 1 && k == 1 {
		dst = append(dst, v) // n == 1 responses carry the value inline
	}
	h.counter.EndBatch(0, k, int64(n)-k)
	return dst, int(k)
}

// dequeueBlock installs one leaf block carrying n dequeues, a bare header,
// propagates it, and returns its index in the handle's leaf.
func (h *Handle[T]) dequeueBlock(n int64) int64 {
	hd := h.readHead(h.leaf)
	prev := h.last
	b := h.newHeader()
	b.sumEnq = prev.sumEnq
	b.sumDeq = prev.sumDeq + n
	h.append(hd, b)
	return hd
}

// append installs b in slot hd of the handle's leaf, the leaf's head the
// caller read, and propagates it to the root (Append, lines 11-15). The
// leaf is single-writer, and its head moves past a slot only once this
// handle has stored there, so the head still reads hd. A plain store
// suffices for the install; the head advance still goes through advance so
// that the block's super field is set before the head moves past it, which
// Invariant 3 and Lemma 12 rely on.
func (h *Handle[T]) append(hd int64, b *block) {
	leaf := h.leaf
	h.storeBlock(leaf, hd, b)
	h.last = b
	h.advance(leaf, hd, b)
	h.propagate(leaf >> 1)
}

// propagate ensures all blocks present in v's children are propagated to the
// root (Propagate, lines 16-23). If the first Refresh fails, a second one is
// enough: any Refresh that succeeded in between has propagated our block
// (Lemma 10).
func (h *Handle[T]) propagate(v int) {
	spin := h.queue.spinningRefresh
	for v >= rootIdx {
		if spin {
			// Ablation: naive retry loop (lock-free, not wait-free).
			for !h.refresh(v) {
			}
		} else if !h.refresh(v) {
			h.refresh(v)
		}
		v >>= 1
	}
}

// refresh tries to append to v a new block representing all blocks in v's
// children not yet in v (Refresh, lines 24-39). It returns true if no new
// block was needed or its CAS succeeded. A candidate whose CAS lost is
// still private — advance then reads the block that actually got
// installed — so it goes back to the arena.
func (h *Handle[T]) refresh(v int) bool {
	hd := h.readHead(v)
	// Help advance a child whose head lags behind an installed block, so
	// that createBlock sees up-to-date child heads (lines 26-31).
	//
	// createBlock's reads of the child heads (lines 41-42) are taken here:
	// a child with nothing to help passes on the head this check just
	// read, and a child that was helped is read again after the help. Lemma
	// 10's double-Refresh argument uses two facts about those reads: each
	// follows this Refresh's read of v.head, and each follows the moment
	// the caller's own block reached the child (propagate refreshes v only
	// after that). An early read keeps both. Between it and the paper's
	// read point this process writes nothing to that child: the only write
	// in between is the other child's help.
	var heads [2]int64
	for c := range heads {
		child := 2*v + c
		childHead := h.readHead(child)
		if blk := h.readBlockOrNil(child, childHead); blk != nil {
			h.advance(child, childHead, blk)
			childHead = h.readHead(child)
		}
		heads[c] = childHead
	}
	b := h.createBlock(v, hd, heads[0], heads[1])
	if b == nil {
		return true
	}
	var installed *block
	if h.casBlock(v, hd, &b.block) {
		installed = &b.block
	} else {
		h.recycle(b)
	}
	h.advance(v, hd, installed)
	return installed != nil
}

// createBlock builds the block a Refresh will try to install in v.blocks[i]
// (CreateBlock, lines 40-57), given the heads of v's left and right child
// that the Refresh read. It returns nil if the children contain no
// operations that are not already in v. The child sums are read *before*
// any block is allocated so the frequent nothing-to-do case touches the
// arena not at all.
func (h *Handle[T]) createBlock(v int, i, headLeft, headRight int64) *innerBlock {
	endLeft := headLeft - 1
	endRight := headRight - 1
	lastLeft := h.readBlock(2*v, endLeft)
	lastRight := h.readBlock(2*v+1, endRight)
	sumEnq := lastLeft.sumEnq + lastRight.sumEnq
	sumDeq := lastLeft.sumDeq + lastRight.sumDeq
	prev := h.readBlock(v, i-1)
	if sumEnq == prev.sumEnq && sumDeq == prev.sumDeq {
		return nil
	}
	b := h.newBlock()
	b.endLeft = endLeft
	b.endRight = endRight
	b.sumEnq = sumEnq
	b.sumDeq = sumDeq
	if v == rootIdx {
		size := prev.size() + (sumEnq - prev.sumEnq) - (sumDeq - prev.sumDeq)
		b.sizeOrSuper.Store(max(size, 0))
	}
	return b
}

// advance sets v.blocks[hd].super (so the block can be traced to its
// superblock) and then moves v.head from hd to hd+1 (Advance, lines 58-64).
// Both CASes are idempotent: concurrent helpers agree on the transition.
// b is v.blocks[hd] when the caller holds it — it just stored or installed
// it there, or read it there — and nil to have advance read the slot. A
// slot never changes once set, so the two are the same block.
func (h *Handle[T]) advance(v int, hd int64, b *block) {
	if v != rootIdx {
		parentHead := h.readHead(v >> 1)
		if b == nil {
			b = h.readBlock(v, hd)
		}
		h.casSuper(b, parentHead)
	}
	h.casHead(v, hd)
}

// --- instrumented shared-memory accessors ---
//
// Each helper performs exactly one shared-memory operation and charges it to
// the handle's counter, implementing the paper's step-complexity cost model.

// readHead loads nodes[v].head.
func (h *Handle[T]) readHead(v int) int64 {
	h.counter.Read(1)
	return h.nodes[v].head.Load()
}

// readBlock loads nodes[v].blocks[i], which the caller asserts is non-nil
// (Invariant 3 guarantees this for all i < v.head).
func (h *Handle[T]) readBlock(v int, i int64) *block {
	h.counter.Read(1)
	return h.nodes[v].blocks.Get(i)
}

// readInner loads nodes[v].blocks[i] of an internal node v as the
// innerBlock it is, which the caller asserts is non-nil. One read, exactly
// as readBlock.
func (h *Handle[T]) readInner(v int, i int64) *innerBlock {
	h.counter.Read(1)
	return innerOf(h.nodes[v].blocks.Get(i))
}

// readBlockOrNil loads nodes[v].blocks[i] where nil is an expected outcome.
func (h *Handle[T]) readBlockOrNil(v int, i int64) *block {
	h.counter.Read(1)
	return h.nodes[v].blocks.Get(i)
}

// storeBlock publishes b at nodes[v].blocks[i]. Only used on the handle's
// own leaf, which has a single writer.
func (h *Handle[T]) storeBlock(v int, i int64, b *block) {
	h.counter.Write()
	h.nodes[v].blocks.Store(i, b)
}

// casBlock tries to install b at nodes[v].blocks[i], expecting the slot to
// be nil.
func (h *Handle[T]) casBlock(v int, i int64, b *block) bool {
	ok := h.nodes[v].blocks.CompareAndSwap(i, nil, b)
	h.counter.CAS(ok)
	return ok
}

// casHead tries to advance nodes[v].head from hd to hd+1.
func (h *Handle[T]) casHead(v int, hd int64) {
	ok := h.nodes[v].head.CompareAndSwap(hd, hd+1)
	h.counter.CAS(ok)
}

// casSuper sets the super field of b, a non-root block, from 0 to val
// once.
func (h *Handle[T]) casSuper(b *block, val int64) {
	ok := b.sizeOrSuper.CompareAndSwap(0, val)
	h.counter.CAS(ok)
}

// readSuper loads the super field of b, a non-root block.
func (h *Handle[T]) readSuper(b *block) int64 {
	h.counter.Read(1)
	return b.sizeOrSuper.Load()
}
