package core

import (
	"sync/atomic"

	"repro/internal/infarray"
)

// The static ordering tree is stored flat: one contiguous slice of nodes in
// 1-indexed heap order. Node v's parent is v/2, its children are 2v and
// 2v+1, its sibling is v^1, and the leaves occupy indices
// [numLeaves, 2*numLeaves) with leaf i at numLeaves+i. Index 0 is unused.
// numLeaves is max(p, 2), not rounded up to a power of two: every leaf of
// a heap of that size sits at depth floor or ceil of log2 numLeaves, so the
// height is the paper's ceil(log2 p), and the deeper leaves are the
// highest-numbered ones.
//
// Flattening replaces the three pointer dereferences per level of a
// pointer-linked tree (parent/left/right) with shift-and-add arithmetic on
// the node index, and keeps every node of the tree in one allocation so the
// root-ward walk of Propagate touches a predictable ascending/descending
// address sequence instead of arbitrary heap addresses. The tree is built
// once at queue construction and never changes shape; only the blocks
// arrays and head indices evolve.
const rootIdx = 1

// childDir reports which child of its parent node v is: left children have
// even indices (2u), right children odd (2u+1). Must not be called on the
// root.
func childDir(v int) direction {
	if v&1 == 0 {
		return left
	}
	return right
}

// node is one node of the static ordering tree.
type node[T any] struct {
	// blocks is the node's logically infinite array of blocks. blocks[0] is
	// a pre-installed empty block whose integer fields are all zero, so the
	// code never needs an index-zero special case. The index-zero blocks
	// come from a construction-time slab that is never handed to the block
	// arena, so no amount of pooling or recycling can ever reuse (and
	// rewrite) a dummy block out from under a reader that relies on its
	// all-zero sums.
	blocks *infarray.Array[block[T]]

	// head is the position to use for the next append attempt: blocks[i] is
	// non-nil for all i < head, and blocks[i] is nil for all i > head
	// (Invariant 3). head only moves forward, via CAS in advance.
	head atomic.Int64

	// Pad each node to two cache lines (the adjacent-line prefetcher's
	// granularity) so one node's hot head atomic never false-shares with a
	// neighbouring node's: in the flat layout, tree neighbours are array
	// neighbours, which is exactly the adjacency that used to be broken up
	// by separate heap allocations.
	_ [128 - 16]byte
}

// isLeaf reports whether index v names a leaf of q's tree.
func (q *Queue[T]) isLeaf(v int) bool { return v >= q.numLeaves }

// newTree builds the flat node slice for a tree with numLeaves leaves, at
// least two, which removes any root==leaf special case; with p = 1 the
// second leaf never receives blocks and contributes zero sums.
func newTree[T any](numLeaves int) []node[T] {
	nodes := make([]node[T], 2*numLeaves)
	// One shared slab for the index-zero dummy blocks; see the blocks field
	// comment for why these must never enter the arena.
	dummies := make([]block[T], len(nodes))
	for v := rootIdx; v < len(nodes); v++ {
		nodes[v].blocks = infarray.New[block[T]]()
		nodes[v].blocks.Store(0, &dummies[v])
		nodes[v].head.Store(1)
	}
	return nodes
}
