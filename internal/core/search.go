package core

// This file implements the read path of a dequeue: locating the dequeue's
// block in the root (IndexDequeue, task T2), deciding emptiness and the
// ranks of the enqueues to return (FindResponse, task T3), and tracing those
// enqueues down to the leaf blocks that store them (GetEnqueue, task T4).
// Lines 65-118 of Figure 4 in the paper. One walk, completeDeqN, answers a
// single dequeue and a batch alike. Tree nodes are heap indices (node.go):
// parent v>>1, children 2v/2v+1, sibling v^1.

import "slices"

// indexDequeue returns (b', i') such that the i-th dequeue of
// D(v.blocks[b]) is the (i')-th dequeue of D(root.blocks[b']).
//
// Preconditions: v.blocks[b] is non-nil, has been propagated to the root,
// and contains at least i dequeues.
func (h *Handle[T]) indexDequeue(v int, b, i int64) (int64, int64) {
	for v != rootIdx {
		dir := childDir(v)
		parent := v >> 1
		blk := h.readBlock(v, b)
		// super may undershoot the true superblock index by one (Lemma 12);
		// checking whether block b is within the candidate's range resolves
		// the ambiguity (line 73).
		sup := h.readSuper(blk)
		supBlk := h.readInner(parent, sup)
		if b > supBlk.end(dir) {
			sup++
			supBlk = h.readInner(parent, sup)
		}
		prevSup := h.readInner(parent, sup-1)

		// Dequeues contributed by earlier subblocks of the superblock that
		// live in v (line 76): blocks prevSup.end(dir)+1 .. b-1.
		i += h.readBlock(v, b-1).sumDeq - h.readBlock(v, prevSup.end(dir)).sumDeq
		if dir == right {
			// All of the superblock's subblocks from the left sibling also
			// precede our dequeue in D(superblock) by equation (3.1)
			// (line 78; the paper's pseudocode has a typo reading these
			// sums from v rather than from the left sibling).
			sib := v ^ 1
			i += h.readBlock(sib, supBlk.endLeft).sumDeq -
				h.readBlock(sib, prevSup.endLeft).sumDeq
		}
		v, b = parent, sup
	}
	return b, i
}

// completeDeqN computes the responses of the n-dequeue batch block stored in
// the handle's leaf at index idx, which must have been propagated to the
// root (FindResponse, lines 83-96, generalized to multi-op blocks). The
// batch is located in the root once. Its dequeues are consecutive in one
// root block, so its k successful ones take the consecutive enqueue ranks
// e..e+k-1, and consecutive ranks sit side by side in a leaf block: the
// walk reads them leaf block by leaf block, one GetEnqueue descent per
// block it spans and one root search per root block. For n == 1 this is
// FindResponse call for call, and the value is returned inline (no slice);
// a batch appends its successful prefix to dst. The last result is k.
func (h *Handle[T]) completeDeqN(idx, n int64, dst []T) (T, []T, int64) {
	b, i := h.indexDequeue(h.leaf, idx, 1)
	blkB := h.readBlock(rootIdx, b)
	prevB := h.readBlock(rootIdx, b-1)
	// Null test (line 87): within a block all enqueues are linearized
	// before all dequeues, so every dequeue from the block's dequeue rank
	// prevB.size+numEnq+1 on finds the queue empty, and the rest is null.
	k := max(0, min(n, prevB.size()+blkB.numEnqueues(prevB)-i+1))
	// Rank (among all enqueues) of the first enqueue to return:
	// prevB.sumEnq - prevB.size counts the non-null dequeues in root blocks
	// 1..b-1 (line 89).
	e := i + prevB.sumEnq - prevB.size()
	var val T
	if n > 1 {
		dst = slices.Grow(dst, int(k))
	}
	var be int64 // root block holding rank e; 0 until the first search
	var beBlk, bePrev *block
	for got := int64(0); got < k; {
		if be == 0 || e > beBlk.sumEnq {
			be, beBlk = h.searchRootForEnqueue(b, e), nil
			bePrev = h.readBlock(rootIdx, be-1)
		}
		lb, ie := h.getEnqueue(rootIdx, be, e-bePrev.sumEnq)
		take := min(k-got, lb.numEnq()-ie+1)
		switch {
		case n == 1:
			val = lb.enqAt(ie)
		case lb.elems != nil:
			dst = append(dst, lb.elems[ie-1:ie-1+take]...)
		default:
			dst = append(dst, lb.element)
		}
		got += take
		e += take
		if got < k && beBlk == nil {
			// Ranks remain, so the next one may leave root block be. Only
			// then is be read: n == 1 reads exactly what FindResponse does.
			beBlk = h.readBlock(rootIdx, be)
		}
	}
	return val, dst, k
}

// searchRootForEnqueue finds the minimum index be <= b with
// root.blocks[be].sumEnq >= e (line 91). A doubling search from b bounds the
// range in O(log(b-be)) probes — which Lemma 20 shows is O(log(q_e + q_d)) —
// before the binary search.
func (h *Handle[T]) searchRootForEnqueue(b, e int64) int64 {
	lo := int64(0)
	if !h.queue.plainRootSearch {
		// Walk lo through b-1, b-2, b-4, ... until blocks[lo] has fewer
		// than e enqueues. blocks[0] has zero enqueues and e >= 1, so
		// lo == 0 works as a final fallback without a read.
		lo = b - 1
		delta := int64(1)
		for lo > 0 && h.readBlock(rootIdx, lo).sumEnq >= e {
			delta <<= 1
			lo = b - delta
			if lo < 0 {
				lo = 0
			}
		}
	}
	// Invariant: sumEnq(lo) < e <= sumEnq(hi); find the boundary.
	hi := b
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if h.readBlock(rootIdx, mid).sumEnq >= e {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// getEnqueue locates the i-th enqueue in E(v.blocks[b]) (GetEnqueue, lines
// 97-118). Instead of the argument it returns the leaf block holding that
// enqueue and the enqueue's rank within it, so a batch can read the block's
// later enqueues too.
//
// Preconditions: i >= 1, v.blocks[b] is non-nil and contains at least i
// enqueues.
func (h *Handle[T]) getEnqueue(v int, b, i int64) (*leafBlock[T], int64) {
	for !h.queue.isLeaf(v) {
		lc, rc := 2*v, 2*v+1
		blkB := h.readInner(v, b)
		prevB := h.readInner(v, b-1)
		// Number of enqueues of E(blkB) contributed by the left child: the
		// left child's subblocks span prevB.endLeft+1 .. blkB.endLeft.
		sumLeft := h.readBlock(lc, blkB.endLeft).sumEnq
		prevLeft := h.readBlock(lc, prevB.endLeft).sumEnq

		var (
			child        int
			prevChild    int64 // enqueues in child.blocks[1..range start-1]
			loIdx, hiIdx int64 // subblock index range in child
		)
		if i <= sumLeft-prevLeft {
			child = lc
			prevChild = prevLeft
			loIdx, hiIdx = prevB.endLeft+1, blkB.endLeft
		} else {
			i -= sumLeft - prevLeft
			child = rc
			prevChild = h.readBlock(rc, prevB.endRight).sumEnq
			loIdx, hiIdx = prevB.endRight+1, blkB.endRight
		}

		// Binary search the direct subblocks for the minimum b' with
		// child.blocks[b'].sumEnq >= i + prevChild (line 114). The range has
		// at most c <= p blocks (Lemma 21), giving O(log c) probes.
		target := i + prevChild
		lo, hi := loIdx-1, hiIdx
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if h.readBlock(child, mid).sumEnq >= target {
				hi = mid
			} else {
				lo = mid
			}
		}
		bp := hi
		i -= h.readBlock(child, bp-1).sumEnq - prevChild
		v, b = child, bp
	}
	// A leaf block carries one enqueue (element) or a whole batch (elems);
	// i survived the descent as the rank within this block. The descent
	// lands only on blocks whose sumEnq exceeds their predecessor's, so
	// the block is an enqueue block and leafOf may widen it.
	return leafOf[T](h.readBlock(v, b)), i
}
