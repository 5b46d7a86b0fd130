package core

import (
	"sync/atomic"
	"unsafe"
)

// block is one entry of a node's blocks array (Figure 3 of the paper). A
// block implicitly represents a sequence of enqueues E(B) and dequeues D(B)
// via prefix sums and child indices rather than storing operations
// explicitly, which is what makes Refresh constant-time (task T1).
//
// block is the header every node's block starts with: the fields every
// node reads, and none of them a pointer, 24 bytes. Each kind of node
// extends it with only the fields that node reads:
//
//   - internal nodes, the root included, store innerBlocks, which add the
//     child indices endLeft and endRight (40 bytes, still pointer-free);
//   - leaves store leafBlocks for enqueues, which add the enqueued values;
//   - leaf dequeue blocks and the leaves' index-0 dummies are bare headers.
//
// So every node's array is one infarray.Array[block], and innerOf and
// leafOf widen a stored header back to the object it was allocated as.
// Blocks come from the handle's arena (pool.go); once published a block is
// immortal, matching the paper's garbage-collected memory model.
type block struct {
	// sumEnq and sumDeq are the number of enqueues and dequeues contained in
	// this node's blocks[1..i] where i is this block's index (Invariant 7).
	sumEnq int64
	sumDeq int64

	// sizeOrSuper is size at the root and super below it: only root blocks
	// have a size, and the root has no parent, so its blocks never have a
	// superblock.
	//
	// size is the number of elements in the queue after all operations up
	// to and including this block have been applied in linearization order.
	// createBlock stores it before the block is published, and it never
	// changes after.
	//
	// super is the approximate index of this block's superblock in the
	// parent's blocks array; it may be one less than the true index
	// (Lemma 12). It is written exactly once, by a CAS in advance, from the
	// parent's head field; 0 means "not yet set" (valid indices are >= 1
	// because every head field starts at 1).
	sizeOrSuper atomic.Int64
}

// size returns a root block's size field. Only valid at the root.
func (b *block) size() int64 { return b.sizeOrSuper.Load() }

// innerBlock is an internal node's block: the header plus the indices of
// the block's last direct subblock in the left and right child. Together
// with the previous block's fields they delimit the direct subblocks,
// equation (3.3). The embedded block must stay the first field: an internal
// node's array holds &ib.block, and innerOf turns it back into ib.
type innerBlock struct {
	block
	endLeft  int64
	endRight int64
}

// innerOf returns the internal block whose first field b is. Invariant:
// every block in an internal node's array, the index-0 dummy newTree makes
// included, is the head of an innerBlock allocation. b must come from an
// internal node's array; a leaf's blocks are not innerBlocks, and the race
// detector's checkptr instrumentation rejects widening a bare header.
func innerOf(b *block) *innerBlock {
	return (*innerBlock)(unsafe.Pointer(b))
}

// end returns endLeft or endRight according to dir.
func (b *innerBlock) end(dir direction) int64 {
	if dir == left {
		return b.endLeft
	}
	return b.endRight
}

// leafBlock is a leaf's enqueue block: the header plus the enqueued values
// it carries. The embedded block must stay the first field: a leaf's array
// holds &lb.block, and leafOf turns it back into lb.
type leafBlock[T any] struct {
	block

	// element is the enqueued value of a single-enqueue block, so the
	// single-op hot path never pays a slice allocation.
	element T

	// elems are the enqueued values of a multi-op block (batch append), in
	// enqueue order. nil for single-op blocks.
	elems []T
}

// leafOf returns the enqueue block whose first field b is. Only a leaf's
// enqueue blocks are leafBlocks: its dequeue blocks and its index-0 dummy
// are bare headers, and the race detector's checkptr instrumentation
// rejects widening one. A caller tells the kinds apart by the sums: an
// enqueue block's sumEnq exceeds its predecessor's.
func leafOf[T any](b *block) *leafBlock[T] {
	return (*leafBlock[T])(unsafe.Pointer(b))
}

// enqAt returns the i-th (1-based) enqueue argument of a leaf block, which
// must contain at least i enqueues.
func (b *leafBlock[T]) enqAt(i int64) T {
	if b.elems != nil {
		return b.elems[i-1]
	}
	return b.element
}

// numEnq returns the number of enqueues an enqueue leaf block carries.
func (b *leafBlock[T]) numEnq() int64 { return max(int64(len(b.elems)), 1) }

// numEnqueues returns |E(B)| given the previous block in the same node.
func (b *block) numEnqueues(prev *block) int64 {
	return b.sumEnq - prev.sumEnq
}

// numDequeues returns |D(B)| given the previous block in the same node.
func (b *block) numDequeues(prev *block) int64 {
	return b.sumDeq - prev.sumDeq
}

// direction distinguishes the two children of an internal node.
type direction int

const (
	left direction = iota + 1
	right
)
