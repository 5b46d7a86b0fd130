package bounded

import (
	"sync/atomic"
	"unsafe"
)

// block is one entry of a node's block store (Figure 5 of the paper).
// Compared with the unbounded version it carries an explicit index (its
// position in the node's blocks array) and drops the super field:
// superblocks are found by searching the parent's blocks on
// endleft/endright.
//
// block holds only the fields internal nodes use, and none of them is a
// pointer: the slabs internal-node blocks are carved from (pool.go) are
// memory the Go collector never scans, and internal-node blocks are most of
// what a Refresh installs.
// Leaf blocks extend it with their operations (leafBlock), so every node's
// store holds *block.
type block struct {
	index int64

	// sumEnq and sumDeq are the prefix sums of Invariant 7: operations in
	// the node's blocks 1..index.
	sumEnq int64
	sumDeq int64

	// endLeft and endRight delimit direct subblocks (internal nodes only).
	endLeft  int64
	endRight int64

	// size is the queue length after this block's operations (root only).
	size int64
}

// leafBlock is a leaf node's block: the common fields plus the operations
// it carries. Leaf blocks representing a dequeue carry a response slot so
// that helpers can complete the operation during garbage collection
// (Appendix B). The embedded block must stay the first field: a leaf's
// store holds &lb.block, and leafOf turns it back into lb.
type leafBlock[T any] struct {
	block

	// element is the enqueued value (leaf blocks carrying a single
	// enqueue). Multi-op enqueue blocks store their values in elems, so the
	// single-op hot path never pays a slice allocation.
	element T

	// elems are the enqueued values of a multi-op leaf block (batch
	// append), in enqueue order. nil for single-op and dequeue blocks.
	elems []T

	// isDeq marks a leaf block that represents a dequeue. (The paper marks
	// dequeues with element = null; an explicit flag avoids reserving a
	// sentinel value of T.)
	isDeq bool

	// deqCount is the number of dequeues a leaf dequeue block carries (1
	// for singles, the batch size for DequeueBatch blocks). GC helpers need
	// it to compute the whole batch's response before discarding blocks.
	deqCount int64

	// response is the dequeue's result, written once by whoever computes it
	// first (the owner or a GC helper). nil means not yet computed.
	response atomic.Pointer[response[T]]
}

// leafOf returns the leaf block whose first field b is. Invariant: every
// block in a leaf node's store, the index-0 sentinel buildTree makes
// included, is the head of a leafBlock[T] allocation, so the conversion
// only ever widens b to the object it was allocated as. b must come from a
// leaf's store; an internal node's block is a bare 48-byte slab element,
// and widening one would read its slab neighbours as leaf fields.
func leafOf[T any](b *block) *leafBlock[T] {
	return (*leafBlock[T])(unsafe.Pointer(b))
}

// response is a dequeue result: ok is false for a null dequeue. For batch
// dequeue blocks, vals holds the values of every successful dequeue of the
// batch (always a prefix of the block's dequeues, since the batch occupies
// one root block) and val/ok mirror the first; single-op responses leave
// vals nil.
type response[T any] struct {
	val  T
	ok   bool
	vals []T
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
