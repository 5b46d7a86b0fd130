package bounded

// Grow doubles the tree: a fresh root goes over the current tree, as its
// left subtree, and a fresh tree of the same size, as its right one. The
// tree must have a power-of-two leaf count, and no operation may run on q
// while Grow does. It costs O(p) and moves no element: every node keeps
// its store and head one level deeper, and every handle keeps its leaf and
// its per-level slabs, shifted one level down. The handles returned before
// stay valid, and Procs() doubles with handles for the new leaves.
//
// The new root's first blocks summarize the old root's history as core's
// Grow does (DESIGN.md, "Growing a tree"): index 0 copies the old root's
// block s, the newest whose enqueues have all been dequeued, and index 1,
// only when the old root's newest block H is newer, carries H's sums and
// size. The last array's nonzero entries become 1, so the next GC phase's
// split is block 0, which maps to s in the old root: no later search reads
// below s, and s is at or past every split before the growth.
func (q *Queue[T]) Grow() {
	n := len(q.leaves)
	if n&(n-1) != 0 {
		panic("bounded: Grow needs a power-of-two leaf count")
	}
	old := q.root.Load()
	fresh, leaves := buildTree[T](n)
	deepen(old)
	deepen(fresh)

	top := old.head.Load() - 1
	blkH := (*block)(old.blocks.load(top, nil))
	s := blkH
	if blkH.size > 0 {
		// s is the block before the oldest one with more enqueues than
		// were dequeued by the end of H; H is such a block.
		floor := blkH.sumEnq - blkH.size
		_, p, _ := old.blocks.findFirst(top, func(x *block) bool { return x.sumEnq > floor }, nil)
		if p == tomb {
			panic("bounded: Grow found the old root's oldest needed block dropped")
		}
		s = (*block)(p)
	}
	root := &node{left: old, right: fresh}
	old.parent, fresh.parent = root, root
	root.blocks.init(&block{sumEnq: s.sumEnq, sumDeq: s.sumDeq, endLeft: s.index, size: s.size})
	root.head.Store(1)
	if top > s.index {
		root.blocks.install(&block{index: 1, sumEnq: blkH.sumEnq, sumDeq: blkH.sumDeq, endLeft: top, size: blkH.size}, false, nil)
		root.head.Store(2)
	}
	q.root.Store(root)
	q.leaves = append(q.leaves, leaves...)
	for k := range q.last {
		if q.last[k].Load() != 0 {
			q.last[k].Store(1)
		}
	}
	for _, h := range q.handles {
		h.slabs = append([]slab{{}}, h.slabs...)
		h.rootHint = 0
	}
	q.addHandles(2 * n)
}

// deepen adds 1 to the depth of every node of v's subtree.
func deepen(v *node) {
	v.depth++
	if !v.isLeaf() {
		deepen(v.left)
		deepen(v.right)
	}
}
