package bounded

// This file implements the dequeue read path of the bounded-space queue
// (Figure 5 lines 206-217 and 268-297, Figure 6): CompleteDeq, IndexDequeue,
// FindResponse, GetEnqueue and Propagated. A block-array access of the
// original algorithm is a store read, and a super field read is a search of
// the parent's end(dir) fields. A read that finds its block dropped by
// garbage collection returns errDiscarded, which by Invariant 27 / Lemma 28
// means the operation's response has already been computed and published
// by a helper. A search probe that lands in the dropped prefix is not a
// miss: it counts as left of the answer. Each search also returns the
// answer's predecessor, which it has just probed, and a dropped predecessor
// is errDiscarded: the block searched for may itself be gone.

// completeDeqN computes the response of the n-dequeue batch block stored in
// leaf.blocks[idx], which must have been propagated to the root
// (CompleteDeq, lines 212-217, generalized to multi-op blocks), and records
// progress in the last array (FindResponse, lines 325-341). The batch is
// located in the root once. Its dequeues are consecutive in one root block,
// so its k successful ones take the consecutive enqueue ranks e..e+k-1, and
// consecutive ranks sit side by side in a leaf block: the walk reads them
// leaf block by leaf block, one GetEnqueue descent per block it spans and
// one root search per root block. For n == 1 this is FindResponse call for
// call, and the value is carried inline (no slice); a batch collects its
// successful prefix into vals.
func (h *Handle[T]) completeDeqN(leaf *node, idx, n int64) (response[T], error) {
	blkB, prevB, i, err := h.indexDequeue(leaf, idx, 1)
	if err != nil {
		return response[T]{}, err
	}
	root := h.queue.root.Load()
	// Null test (line 331): every dequeue from the block's dequeue rank
	// prevB.size+numEnq+1 on finds the queue empty, so the rest is null.
	k := max(0, min(n, prevB.size+blkB.sumEnq-prevB.sumEnq-i+1))
	// Rank (among all enqueues) of the first enqueue to return (line 333).
	e := i + prevB.sumEnq - prevB.size
	var res response[T]
	if n > 1 && k > 0 {
		res.vals = make([]T, 0, k)
	}
	var be, bePrev *block
	for got := int64(0); got < k; {
		if be == nil || e > be.sumEnq {
			// Successive dequeues take successive ranks, so the search
			// starts at the root block the handle's previous one found.
			if be, bePrev, err = h.findFirst(root, h.rootHint, func(x *block) bool { return x.sumEnq >= e }); err != nil {
				return response[T]{}, err
			}
			h.rootHint = be.index
		}
		eb, ie, err := h.getEnqueue(root, be, bePrev, e-bePrev.sumEnq)
		if err != nil {
			return response[T]{}, err
		}
		lb := leafOf[T](eb)
		take := min(k-got, lb.numEnq()-ie+1)
		switch {
		case n == 1:
			res.val = lb.enqAt(ie)
		case lb.elems != nil:
			res.vals = append(res.vals, lb.elems[ie-1:ie-1+take]...)
		default:
			res.vals = append(res.vals, lb.element)
		}
		got += take
		e += take
	}
	// last gets what FindResponse on each rank would record: the batch's
	// root block once a null was answered, otherwise the newest root block
	// an enqueue came from.
	if k < n {
		h.updateLast(blkB.index)
	} else {
		h.updateLast(be.index)
	}
	res.ok = k > 0
	return res, nil
}

// indexDequeue returns root.blocks[b'], the block before it and i' such
// that the i-th dequeue of D(v.blocks[b]) is the (i')-th dequeue of
// D(root.blocks[b']) (IndexDequeue, lines 281-297). v is a leaf, never the
// root (a tree has at least two leaves). The superblock at each level is
// found by searching the parent's blocks: endleft/endright are
// non-decreasing in block index (Lemma 4'), so the superblock of block b is
// the lowest-indexed parent block whose end(dir) reaches b. The block was
// just propagated, so the search starts below the parent's head. Block
// indices are dense, so the last block with end(dir) < b is the one the
// search returns as the superblock's predecessor, and it is the block
// before b one level up.
func (h *Handle[T]) indexDequeue(v *node, b, i int64) (blk, prev *block, _ int64, err error) {
	if prev, err = h.readBlock(v, b-1); err != nil {
		return nil, nil, 0, err
	}
	for !v.isRoot() {
		dir := v.childDir()
		sup, supPrev, err := h.findFirst(v.parent, h.readHead(v.parent)-1, func(x *block) bool { return x.end(dir) >= b })
		if err != nil {
			return nil, nil, 0, err
		}
		endPrev, err := h.readBlock(v, supPrev.end(dir))
		if err != nil {
			return nil, nil, 0, err
		}
		// Dequeues in v's earlier subblocks of the superblock (line 291).
		i += prev.sumDeq - endPrev.sumDeq
		if dir == right {
			// Subblocks contributed by the left sibling precede ours in
			// D(superblock) (line 293; as in the unbounded version, the
			// sums come from the sibling's blocks).
			sib := v.sibling()
			lastL, err := h.readBlock(sib, sup.endLeft)
			if err != nil {
				return nil, nil, 0, err
			}
			prevL, err := h.readBlock(sib, supPrev.endLeft)
			if err != nil {
				return nil, nil, 0, err
			}
			i += lastL.sumDeq - prevL.sumDeq
		}
		v, b, blk, prev = v.parent, sup.index, sup, supPrev
	}
	return blk, prev, i, nil
}

// getEnqueue locates the i-th enqueue in E(blkB), where blkB and prevB are
// consecutive blocks of node v (GetEnqueue, Figure 6). Instead of the
// argument it returns the leaf block holding that enqueue and the enqueue's
// rank within it, so a batch can read the block's later enqueues too.
func (h *Handle[T]) getEnqueue(v *node, blkB, prevB *block, i int64) (*block, int64, error) {
	for !v.isLeaf() {
		lastL, err := h.readBlock(v.left, blkB.endLeft)
		if err != nil {
			return nil, 0, err
		}
		prevL, err := h.readBlock(v.left, prevB.endLeft)
		if err != nil {
			return nil, 0, err
		}
		fromLeft := lastL.sumEnq - prevL.sumEnq

		var (
			child           *node
			prevChild, last int64
		)
		if i <= fromLeft {
			child, prevChild, last = v.left, prevL.sumEnq, blkB.endLeft
		} else {
			i -= fromLeft
			prevR, err := h.readBlock(v.right, prevB.endRight)
			if err != nil {
				return nil, 0, err
			}
			child, prevChild, last = v.right, prevR.sumEnq, blkB.endRight
		}

		// The direct subblock holding the enqueue is the lowest-indexed
		// block reaching i+prevChild enqueues (line 356); sumEnq is
		// monotone in index (Invariant 7), so a search finds it, from
		// blkB's last direct subblock in the child, with its predecessor.
		target := i + prevChild
		cand, candPrev, err := h.findFirst(child, last, func(x *block) bool { return x.sumEnq >= target })
		if err != nil {
			return nil, 0, err
		}
		i -= candPrev.sumEnq - prevChild
		v, blkB, prevB = child, cand, candPrev
	}
	// A leaf block carries one enqueue (element) or a whole batch (elems);
	// i survived the descent as the rank within this block.
	return blkB, i, nil
}

// propagated reports whether v.blocks[b] has been propagated to the root
// (Propagated, lines 268-280).
func (h *Handle[T]) propagated(v *node, b int64) bool {
	for !v.isRoot() {
		dir := v.childDir()
		maxB := h.newest(v.parent)
		if maxB.end(dir) < b {
			return false
		}
		sup, _, ok := v.parent.blocks.findFirst(maxB.index, func(x *block) bool { return x.end(dir) >= b }, h.counter)
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
