package bounded

// This file implements the dequeue read path of the bounded-space queue
// (Figure 5 lines 206-217 and 268-297, Figure 6): CompleteDeq, IndexDequeue,
// FindResponse, GetEnqueue and Propagated. All block-array accesses of the
// original algorithm become searches of persistent trees; any search that
// misses because garbage collection discarded the block returns
// errDiscarded, which by Invariant 27 / Lemma 28 means the operation's
// response has already been computed and published by a helper.

// completeDeqN computes the response of the n-dequeue batch block stored in
// leaf.blocks[idx], which must have been propagated to the root
// (CompleteDeq, lines 212-217, generalized to multi-op blocks). The batch
// is located in the root once; each op rank then resolves with its own
// FindResponse. n == 1 responses carry the value inline (no slice); batch
// responses collect the successful prefix into vals.
func (h *Handle[T]) completeDeqN(leaf *node[T], idx, n int64) (response[T], error) {
	b, i, err := h.indexDequeue(leaf, idx, 1)
	if err != nil {
		return response[T]{}, err
	}
	if n == 1 {
		return h.findResponse(b, i)
	}
	var res response[T]
	for j := int64(0); j < n; j++ {
		r, err := h.findResponse(b, i+j)
		if err != nil {
			return response[T]{}, err
		}
		if !r.ok {
			break // within one root block, nulls are a suffix
		}
		res.vals = append(res.vals, r.val)
	}
	if len(res.vals) > 0 {
		res.val, res.ok = res.vals[0], true
	}
	return res, nil
}

// indexDequeue returns (b', i') such that the i-th dequeue of
// D(v.blocks[b]) is the (i')-th dequeue of D(root.blocks[b']) (IndexDequeue,
// lines 281-297). The superblock at each level is found by searching the
// parent's tree: endleft/endright are non-decreasing in block index
// (Lemma 4'), so the superblock of block b is the lowest-indexed parent
// block whose end(dir) reaches b.
func (h *Handle[T]) indexDequeue(v *node[T], b, i int64) (int64, int64, error) {
	for !v.isRoot() {
		dir := v.childDir()
		pt := h.loadTree(v.parent)
		sup, ok := h.treeFindFirst(pt, func(x *block[T]) bool { return x.end(dir) >= b })
		if !ok {
			return 0, 0, errDiscarded
		}
		// Block indices are dense, so the last block with end(dir) < b is
		// sup's predecessor. A miss means the true superblock or its
		// predecessor was discarded; the prefix-only removal of GC means
		// everything older is gone too and the operation has been helped.
		supPrev, err := h.treeGet(pt, sup.index-1)
		if err != nil {
			return 0, 0, err
		}

		vt := h.loadTree(v)
		prevB, err := h.treeGet(vt, b-1)
		if err != nil {
			return 0, 0, err
		}
		endPrev, err := h.treeGet(vt, supPrev.end(dir))
		if err != nil {
			return 0, 0, err
		}
		// Dequeues in v's earlier subblocks of the superblock (line 291).
		i += prevB.sumDeq - endPrev.sumDeq
		if dir == right {
			// Subblocks contributed by the left sibling precede ours in
			// D(superblock) (line 293; as in the unbounded version, the
			// sums come from the sibling's blocks).
			sib := v.sibling()
			st := h.loadTree(sib)
			lastL, err := h.treeGet(st, sup.endLeft)
			if err != nil {
				return 0, 0, err
			}
			prevL, err := h.treeGet(st, supPrev.endLeft)
			if err != nil {
				return 0, 0, err
			}
			i += lastL.sumDeq - prevL.sumDeq
		}
		v, b = v.parent, sup.index
	}
	return b, i, nil
}

// findResponse computes the response of the i-th dequeue in
// D(root.blocks[b]) and records progress in the last array (FindResponse,
// lines 325-341).
func (h *Handle[T]) findResponse(b, i int64) (response[T], error) {
	rt := h.loadTree(h.queue.root)
	blkB, err := h.treeGet(rt, b)
	if err != nil {
		return response[T]{}, err
	}
	prevB, err := h.treeGet(rt, b-1)
	if err != nil {
		return response[T]{}, err
	}
	numEnq := blkB.sumEnq - prevB.sumEnq
	if prevB.size+numEnq < i {
		// Null dequeue: the queue is empty at the linearization point.
		h.updateLast(b)
		return response[T]{ok: false}, nil
	}
	// Rank (among all enqueues) of the enqueue to return (line 333).
	e := i + prevB.sumEnq - prevB.size
	beBlk, ok := h.treeFindFirst(rt, func(x *block[T]) bool { return x.sumEnq >= e })
	if !ok {
		return response[T]{}, errDiscarded
	}
	bePrev, err := h.treeGet(rt, beBlk.index-1)
	if err != nil {
		return response[T]{}, err
	}
	if bePrev.sumEnq >= e {
		// The true block holding the e-th enqueue was discarded and the
		// search slid to a later block.
		return response[T]{}, errDiscarded
	}
	ie := e - bePrev.sumEnq
	val, err := h.getEnqueue(h.queue.root, beBlk, bePrev, ie)
	if err != nil {
		return response[T]{}, err
	}
	h.updateLast(beBlk.index)
	return response[T]{val: val, ok: true}, nil
}

// getEnqueue returns the argument of the i-th enqueue in E(blkB), where
// blkB and prevB are consecutive blocks of node v (GetEnqueue, Figure 6).
func (h *Handle[T]) getEnqueue(v *node[T], blkB, prevB *block[T], i int64) (T, error) {
	var zero T
	for !v.isLeaf() {
		lt := h.loadTree(v.left)
		lastL, err := h.treeGet(lt, blkB.endLeft)
		if err != nil {
			return zero, err
		}
		prevL, err := h.treeGet(lt, prevB.endLeft)
		if err != nil {
			return zero, err
		}
		fromLeft := lastL.sumEnq - prevL.sumEnq

		var (
			child     *node[T]
			childT    *blockTree[T]
			prevChild int64
		)
		if i <= fromLeft {
			child, childT, prevChild = v.left, lt, prevL.sumEnq
		} else {
			i -= fromLeft
			rt := h.loadTree(v.right)
			prevR, err := h.treeGet(rt, prevB.endRight)
			if err != nil {
				return zero, err
			}
			child, childT, prevChild = v.right, rt, prevR.sumEnq
		}

		// The direct subblock holding the enqueue is the lowest-indexed
		// block reaching i+prevChild enqueues (line 356); sumEnq is
		// monotone in index (Invariant 7), so a tree search finds it. The
		// predecessor check detects a discarded true target: if the found
		// block's predecessor already reaches the target, the search slid
		// past a GC'd block.
		target := i + prevChild
		cand, ok := h.treeFindFirst(childT, func(x *block[T]) bool { return x.sumEnq >= target })
		if !ok {
			return zero, errDiscarded
		}
		candPrev, err := h.treeGet(childT, cand.index-1)
		if err != nil {
			return zero, err
		}
		if candPrev.sumEnq >= target {
			return zero, errDiscarded
		}
		i -= candPrev.sumEnq - prevChild
		v, blkB, prevB = child, cand, candPrev
	}
	// A leaf block carries one enqueue (element) or a whole batch (elems);
	// i survived the descent as the rank within this block.
	return blkB.enqAt(i), nil
}

// propagated reports whether v.blocks[b] has been propagated to the root
// (Propagated, lines 268-280).
func (h *Handle[T]) propagated(v *node[T], b int64) bool {
	for !v.isRoot() {
		pt := h.loadTree(v.parent)
		dir := v.childDir()
		_, maxB := h.treeMax(pt)
		if maxB.end(dir) < b {
			return false
		}
		sup, ok := h.treeFindFirst(pt, func(x *block[T]) bool { return x.end(dir) >= b })
		if !ok {
			return false
		}
		v, b = v.parent, sup.index
	}
	return true
}

// updateLast raises this process's entry in the last array to idx. Each
// entry has a single writer (its process), so a load-check-store suffices.
func (h *Handle[T]) updateLast(idx int64) {
	slot := &h.queue.last[h.id]
	h.counter.Read(1)
	if idx > slot.Load() {
		h.counter.Write()
		slot.Store(idx)
	}
}
