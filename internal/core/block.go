package core

import "sync/atomic"

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
// Lifecycle under the block arena (pool.go): blocks are drawn from a
// per-handle arena, and only blocks that were *never published* are ever
// recycled (a Refresh candidate whose CAS lost, or that was abandoned
// before the CAS). Once published a block is immortal: concurrent searches
// may read arbitrarily old blocks, matching the paper's garbage-collected
// memory model. The per-node dummy at blocks[0] comes from a separate
// construction-time slab that never enters the arena, so the all-zero
// prefix sums that every search bottoms out on can never be recycled and
// rewritten — pre-installation survives pooling by construction, not by
// luck.
type block[T any] struct {
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

	// element is the enqueued value (leaf blocks representing a single
	// enqueue). Multi-op enqueue blocks store their values in elems instead,
	// so the single-op hot path never pays a slice allocation.
	element T

	// elems are the enqueued values of a multi-op leaf block (batch append),
	// in enqueue order. nil for single-op blocks and dequeue blocks; when
	// set, element is unused.
	elems []T

	// super is the approximate index of this block's superblock in the
	// parent's blocks array; it may be one less than the true index
	// (Lemma 12). 0 means unset.
	super atomic.Int64
}

// enqAt returns the i-th (1-based) enqueue argument of a leaf block, which
// must contain at least i enqueues.
func (b *block[T]) enqAt(i int64) T {
	if b.elems != nil {
		return b.elems[i-1]
	}
	return b.element
}

// numEnq returns the number of enqueues an enqueue leaf block carries.
func (b *block[T]) numEnq() int64 { return max(int64(len(b.elems)), 1) }

// numEnqueues returns |E(B)| given the previous block in the same node.
func (b *block[T]) numEnqueues(prev *block[T]) int64 {
	return b.sumEnq - prev.sumEnq
}

// numDequeues returns |D(B)| given the previous block in the same node.
func (b *block[T]) numDequeues(prev *block[T]) int64 {
	return b.sumDeq - prev.sumDeq
}

// end returns endLeft or endRight according to dir.
func (b *block[T]) end(dir direction) int64 {
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
