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
// address sequence instead of arbitrary heap addresses. Operations never
// change the tree's shape; only the blocks arrays and head indices evolve.
// Grow (grow.go) doubles a power-of-two tree between operations.
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
type node struct {
	// blocks is the node's logically infinite array of blocks. blocks[0] is
	// a pre-installed empty block whose integer fields are all zero, so the
	// code never needs an index-zero special case. The index-zero blocks
	// come from construction-time slabs that are never handed to the block
	// arena, so no amount of recycling can ever reuse (and rewrite) a dummy
	// block out from under a reader that relies on its all-zero sums. At an
	// internal node every block, the dummy included, is the head of an
	// innerBlock; at a leaf, enqueue blocks are the heads of leafBlocks and
	// the dummy and dequeue blocks are bare headers (block.go).
	blocks *infarray.Array[block]

	// head is the position to use for the next append attempt: blocks[i] is
	// non-nil for all i < head, and blocks[i] is nil for all i > head
	// (Invariant 3). head only moves forward, via CAS in advance.
	head atomic.Int64

	// Pad each node to two cache lines (the adjacent-line prefetcher's
	// granularity) so one node's hot head atomic never false-shares with a
	// neighbouring node's: in the flat layout, tree neighbours are array
	// neighbours.
	_ [128 - 16]byte
}

// isLeaf reports whether index v names a leaf of q's tree.
func (q *Queue[T]) isLeaf(v int) bool { return v >= q.numLeaves }

// newTree builds the flat node slice for a tree with numLeaves leaves, at
// least two, which removes any root==leaf special case; with p = 1 the
// second leaf never receives blocks and contributes zero sums.
func newTree(numLeaves int) []node {
	nodes := make([]node, 2*numLeaves)
	initFresh(nodes, numLeaves, func(v int) int { return v })
	return nodes
}

// initFresh makes a fresh tree of numLeaves leaves in nodes: the node a
// bare tree of that size numbers v is nodes[at(v)]. Each gets its index-0
// dummy and a head of 1. Shared slabs hold the dummies, one per kind; see
// the blocks field comment for why these must never enter the arena.
func initFresh(nodes []node, numLeaves int, at func(v int) int) {
	dummies := make([]innerBlock, numLeaves)
	leafDummies := make([]block, numLeaves)
	for v := rootIdx; v < 2*numLeaves; v++ {
		n := &nodes[at(v)]
		n.blocks = infarray.New[block]()
		if v < numLeaves {
			n.blocks.Store(0, &dummies[v].block)
		} else {
			n.blocks.Store(0, &leafDummies[v-numLeaves])
		}
		n.head.Store(1)
	}
}
