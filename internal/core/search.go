package core

// This file implements the read path of a dequeue: locating the dequeue's
// block in the root (IndexDequeue, task T2), deciding emptiness and the
// ranks of the enqueues to return (FindResponse, task T3), and tracing those
// enqueues down to the leaf blocks that store them (GetEnqueue, task T4).
// Lines 65-118 of Figure 4 in the paper. One walk, completeDeqN, answers a
// single dequeue and a batch alike. Tree nodes are heap indices (node.go):
// parent v>>1, children 2v/2v+1, sibling v^1.
//
// A published block never changes except for its one-time super (§3), so
// the walk reads a slot at most once and carries what it read:
// indexDequeue carries each level's superblock and its predecessor up as
// the next level's pair and hands the root's pair to completeDeqN; the root
// search returns the block before its answer; getEnqueue carries each
// found block's predecessor down. The root search starts at the root block
// the handle's previous search found, and falls back to the paper's
// doubling search when that hint does not bracket the answer.

import "slices"

// indexDequeue returns (b', i') such that the i-th dequeue of
// D(v.blocks[b]) is the (i')-th dequeue of D(root.blocks[b']), together with
// root.blocks[b'] and root.blocks[b'-1].
//
// Each level's superblock and the block before it are the next level's
// blocks b and b-1, so the walk carries them up instead of reading them
// again, and hands the root's pair to its caller.
//
// Preconditions: v.blocks[b] is non-nil, has been propagated to the root,
// and contains at least i dequeues.
func (h *Handle[T]) indexDequeue(v int, b, i int64) (int64, int64, *block, *block) {
	blk, prev := h.readBlock(v, b), h.readBlock(v, b-1)
	for v != rootIdx {
		dir := childDir(v)
		parent := v >> 1
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
		// live in v (line 76): blocks prevSup.end(dir)+1 .. b-1. When b is
		// the superblock's first subblock from v there are none, and the
		// block the sum would come from is prev itself.
		if first := prevSup.end(dir); first < b-1 {
			i += prev.sumDeq - h.readBlock(v, first).sumDeq
		}
		if dir == right && supBlk.endLeft > prevSup.endLeft {
			// All of the superblock's subblocks from the left sibling also
			// precede our dequeue in D(superblock) by equation (3.1)
			// (line 78; the paper's pseudocode has a typo reading these
			// sums from v rather than from the left sibling).
			sib := v ^ 1
			i += h.readBlock(sib, supBlk.endLeft).sumDeq -
				h.readBlock(sib, prevSup.endLeft).sumDeq
		}
		v, b, blk, prev = parent, sup, &supBlk.block, &prevSup.block
	}
	return b, i, blk, prev
}

// completeDeqN computes the responses of the n-dequeue batch block stored in
// the handle's leaf at index idx, which must have been propagated to the
// root (FindResponse, lines 83-96, generalized to multi-op blocks). The
// batch is located in the root once. Its dequeues are consecutive in one
// root block, so its k successful ones take the consecutive enqueue ranks
// e..e+k-1, and consecutive ranks sit side by side in a leaf block: the
// walk reads them leaf block by leaf block, one GetEnqueue descent per
// block it spans and one root search per root block. For n == 1 this is
// FindResponse's sequence of searches, and the value is returned inline (no
// slice); a batch appends its successful prefix to dst. The last result is
// k.
func (h *Handle[T]) completeDeqN(idx, n int64, dst []T) (T, []T, int64) {
	b, i, blkB, prevB := h.indexDequeue(h.leaf, idx, 1)
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
			be, bePrev = h.searchRootForEnqueue(b, e)
			beBlk = nil
		}
		lb, ie := h.getEnqueue(rootIdx, be, e-bePrev.sumEnq, bePrev)
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
			// then is be read: n == 1 never reads it.
			beBlk = h.readBlock(rootIdx, be)
		}
	}
	return val, dst, k
}

// hintProbes is how many blocks a hinted root search probes forward of the
// hint before it falls back to the doubling search from b.
const hintProbes = 4

// searchRootForEnqueue finds the minimum index be <= b with
// root.blocks[be].sumEnq >= e (line 91) and returns it with
// root.blocks[be-1]. It narrows the range in up to three phases:
//
//   - From the hint: the root block the handle's previous search found.
//     Successive dequeues take successive ranks, so the answer usually lies
//     a block or two past it. The hint is used only if it is at most b and
//     root.blocks[hint-1] has fewer than e enqueues; then the search
//     gallops forward from there, probing up to hintProbes blocks at
//     distances 1, 2, 4, ..., and binary-searches the bracket it finds.
//   - Otherwise, or if the gallop found no bracket, the paper's doubling
//     search from b (Lemma 20), stopped early at the block the hint phase
//     showed to have fewer than e enqueues.
//   - A binary search of what is left.
//
// The doubling search bounds the range in O(log(b-be)) probes, which
// Lemma 20 shows is O(log(q_e + q_d)). The hint phase reads at most
// hintProbes+1 blocks. When it brackets the answer, the whole search costs
// no more than that plus 2, however far back the doubling search would
// have gone. When it does not, the floor it leaves can only stop the
// doubling phase sooner and narrow the binary phase's range, and a
// narrower range costs at most one probe more (ceil against floor of the
// logarithm). So a search reads at most hintProbes+2 blocks more than the
// doubling search would, and the bound holds (TestRootSearchHint).
// WithPlainRootSearch skips the first two phases and binary-searches the
// whole history. Every search leaves its answer as the next search's hint.
func (h *Handle[T]) searchRootForEnqueue(b, e int64) (int64, *block) {
	// Invariant: sumEnq(lo) < e <= sumEnq(hi), and loBlk is root.blocks[lo]
	// once the search has read it. blocks[0] has zero enqueues and e >= 1,
	// so lo == 0 holds without a read.
	lo, hi := int64(0), b
	var loBlk *block
	if !h.queue.plainRootSearch {
		lo, hi, loBlk = h.bracketRoot(b, e)
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if blk := h.readBlock(rootIdx, mid); blk.sumEnq >= e {
			hi = mid
		} else {
			lo, loBlk = mid, blk
		}
	}
	if loBlk == nil {
		loBlk = h.readBlock(rootIdx, lo)
	}
	h.rootHint = hi
	return hi, loBlk
}

// bracketRoot runs the hint and doubling phases of searchRootForEnqueue and
// returns lo < hi with sumEnq(lo) < e <= sumEnq(hi), and root.blocks[lo]
// if it read that block (nil otherwise).
func (h *Handle[T]) bracketRoot(b, e int64) (lo, hi int64, loBlk *block) {
	hi = b
	if hint := h.rootHint; hint >= 1 && hint <= b {
		// blocks[0] qualifies without a read.
		var baseBlk *block
		usable := hint == 1
		if !usable {
			baseBlk = h.readBlock(rootIdx, hint-1)
			usable = baseBlk.sumEnq < e
		}
		if usable {
			lo, loBlk = hint-1, baseBlk
			for d := int64(1); d < 1<<hintProbes; d <<= 1 {
				x := hint - 1 + d
				if x >= b {
					return lo, b, loBlk
				}
				blk := h.readBlock(rootIdx, x)
				if blk.sumEnq >= e {
					return lo, x, loBlk
				}
				lo, loBlk = x, blk
			}
		}
	}
	// Walk lo through b-1, b-2, b-4, ... until blocks[lo] has fewer than e
	// enqueues, or until it reaches the floor the hint phase left (0 if
	// there was none).
	for d := int64(1); b-d > lo; d <<= 1 {
		if blk := h.readBlock(rootIdx, b-d); blk.sumEnq < e {
			return b - d, hi, blk
		}
	}
	return lo, hi, loBlk
}

// getEnqueue locates the i-th enqueue in E(v.blocks[b]), where prev is
// v.blocks[b-1] (GetEnqueue, lines 97-118). Instead of the argument it
// returns the leaf block holding that enqueue and the enqueue's rank within
// it, so a batch can read the block's later enqueues too. Each level's
// binary search ends with the found block's predecessor in hand, so the
// descent carries it down as the next level's prev.
//
// Preconditions: i >= 1, v.blocks[b] is non-nil and contains at least i
// enqueues.
func (h *Handle[T]) getEnqueue(v int, b, i int64, prev *block) (*leafBlock[T], int64) {
	for !h.queue.isLeaf(v) {
		lc, rc := 2*v, 2*v+1
		blkB := h.readInner(v, b)
		prevB := innerOf(prev)
		// Number of enqueues of E(blkB) contributed by the left child: the
		// left child's subblocks span prevB.endLeft+1 .. blkB.endLeft, and
		// there are none when the two ends are equal.
		var prevLeft *block
		fromLeft := int64(0)
		if blkB.endLeft > prevB.endLeft {
			prevLeft = h.readBlock(lc, prevB.endLeft)
			fromLeft = h.readBlock(lc, blkB.endLeft).sumEnq - prevLeft.sumEnq
		}

		var (
			child  int
			lo, hi int64  // subblocks lo+1 .. hi of child are blkB's
			loBlk  *block // child.blocks[lo]
		)
		if i <= fromLeft {
			child, lo, hi, loBlk = lc, prevB.endLeft, blkB.endLeft, prevLeft
		} else {
			i -= fromLeft
			child, lo, hi = rc, prevB.endRight, blkB.endRight
			loBlk = h.readBlock(rc, lo)
		}

		// Binary search the direct subblocks for the minimum b' with
		// child.blocks[b'].sumEnq >= i + sumEnq(lo) (line 114). The range
		// has at most c <= p blocks (Lemma 21), giving O(log c) probes.
		// Invariant: sumEnq(lo) < target <= sumEnq(hi), and loBlk is
		// child.blocks[lo].
		target := i + loBlk.sumEnq
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if blk := h.readBlock(child, mid); blk.sumEnq >= target {
				hi = mid
			} else {
				lo, loBlk = mid, blk
			}
		}
		v, b, i, prev = child, hi, target-loBlk.sumEnq, loBlk
	}
	// A leaf block carries one enqueue (element) or a whole batch (elems);
	// i survived the descent as the rank within this block. The descent
	// lands only on blocks whose sumEnq exceeds their predecessor's, so
	// the block is an enqueue block and leafOf may widen it.
	return leafOf[T](h.readBlock(v, b)), i
}
