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
// All fields except super are immutable after the block is published to a
// blocks array. super is written exactly once, by a CAS in advance, from the
// parent's head field; 0 means "not yet set" (valid indices are >= 1 because
// every head field starts at 1).
//
// block holds only the fields internal nodes use, and none of them is a
// pointer: at 48 bytes it lands in a size class the Go collector never
// scans, and internal-node blocks are most of what an operation installs.
// Leaf blocks extend it with their enqueued values (leafBlock), so every
// node's array is one infarray.Array[block]. Blocks come from the handle's
// arena (pool.go); once published a block is immortal, matching the
// paper's garbage-collected memory model.
type block struct {
	// sumEnq and sumDeq are the number of enqueues and dequeues contained in
	// this node's blocks[1..i] where i is this block's index (Invariant 7).
	sumEnq int64
	sumDeq int64

	// endLeft and endRight are the indices of the block's last direct
	// subblock in the left and right child (internal nodes only). Together
	// with the previous block's fields they delimit the direct subblocks,
	// equation (3.3).
	endLeft  int64
	endRight int64

	// size is the number of elements in the queue after all operations up to
	// and including this block have been applied in linearization order
	// (root blocks only).
	size int64

	// super is the approximate index of this block's superblock in the
	// parent's blocks array; it may be one less than the true index
	// (Lemma 12). 0 means unset.
	super atomic.Int64
}

// leafBlock is a leaf node's block: the common fields plus the enqueued
// values it carries. The embedded block must stay the first field: a leaf's
// array holds &lb.block, and leafOf turns it back into lb.
type leafBlock[T any] struct {
	block

	// element is the enqueued value of a single-enqueue block, so the
	// single-op hot path never pays a slice allocation.
	element T

	// elems are the enqueued values of a multi-op leaf block (batch append),
	// in enqueue order. nil for single-op blocks and dequeue blocks.
	elems []T
}

// leafOf returns the leaf block whose first field b is. Invariant: every
// block in a leaf node's array, the index-0 dummy newTree makes included,
// is the head of a leafBlock[T] allocation, so the conversion only ever
// widens b to the object it was allocated as. b must come from a leaf's
// array; an internal node's block is a bare 48-byte block, and the race
// detector's checkptr instrumentation rejects widening one.
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

// end returns endLeft or endRight according to dir.
func (b *block) end(dir direction) int64 {
	if dir == left {
		return b.endLeft
	}
	return b.endRight
}

// direction distinguishes the two children of an internal node.
type direction int

const (
	left direction = iota + 1
	right
)
