package core

import (
	"math/bits"

	"repro/internal/infarray"
)

// Grow doubles the tree: a fresh root goes over the current tree, as its
// left subtree, and a fresh tree of the same size, as its right one. The
// tree must have a power-of-two leaf count, and no operation may run on q
// while Grow does. It costs O(p) and moves no element: every node keeps
// its blocks and head, and every handle keeps its leaf, at new heap
// indices. The handles returned before stay valid, and Procs() doubles
// with handles for the new leaves.
//
// In heap numbering, node v at depth d becomes v+2^d, which puts a leaf
// n+i at 2n+i, so the tree after each doubling has the shape of a bare
// tree of that size. The new root's first blocks summarize the old root's
// history (DESIGN.md, "Growing a tree"):
//
//   - index 0 copies the old root's block s, the newest whose enqueues
//     have all been dequeued: sumEnq(s) <= sumEnq(H) - size(H), where H is
//     the old root's newest block;
//   - index 1, only when H > s, carries H's sums and size.
//
// Both end at their block in the left child and at the right child's
// dummy. Every later dequeue takes a rank above sumEnq(s), so no root
// search reads block 0 as an answer, and a search that lands in block 1
// descends into the old root between s and H.
func (q *Queue[T]) Grow() {
	n := q.numLeaves
	if n&(n-1) != 0 {
		panic("core: Grow needs a power-of-two leaf count")
	}
	old := q.tree()
	nodes := make([]node, 4*n)
	for v := rootIdx; v < 2*n; v++ {
		dst := &nodes[v+1<<(bits.Len(uint(v))-1)]
		dst.blocks = old[v].blocks
		dst.head.Store(old[v].head.Load())
	}
	initFresh(nodes, n, func(v int) int { return v + 2<<(bits.Len(uint(v))-1) })

	oldRoot := &old[rootIdx]
	top := oldRoot.head.Load() - 1
	blkH := oldRoot.blocks.Get(top)
	floor := blkH.sumEnq - blkH.size()
	// s is the newest block with sumEnq(s) <= floor: block 0 qualifies, no
	// block past H exists, and sumEnq is monotone in index.
	s, past := int64(0), top+1
	for past-s > 1 {
		if mid := s + (past-s)/2; oldRoot.blocks.Get(mid).sumEnq <= floor {
			s = mid
		} else {
			past = mid
		}
	}
	root := &nodes[rootIdx]
	root.blocks = infarray.New[block]()
	root.blocks.Store(0, &summary(oldRoot.blocks.Get(s), s).block)
	hd := int64(1)
	if top > s {
		root.blocks.Store(1, &summary(blkH, top).block)
		hd = 2
	}
	root.head.Store(hd)

	q.numLeaves = 2 * n
	q.nodes.Store(&nodes)
	for _, h := range q.handles {
		h.nodes = nodes
		h.leaf += n
		h.rootHint = 0
	}
	q.addHandles(2 * n)
}

// summary returns a new root block with b's sums and size that ends at
// block end of the left child and at the right child's dummy.
func summary(b *block, end int64) *innerBlock {
	ib := &innerBlock{block: block{sumEnq: b.sumEnq, sumDeq: b.sumDeq}, endLeft: end}
	ib.sizeOrSuper.Store(b.size())
	return ib
}
