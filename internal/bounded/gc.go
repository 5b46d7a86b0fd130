package bounded

// Garbage collection (paper Section 6, Appendix B): a block whose install
// carries a node's cumulative operation count across a multiple of G (see
// addBlock) triggers a GC phase that (1) determines the oldest block the
// node must keep, by tracing the last array's maximum down from the root
// along endleft/endright indices, (2) helps every pending propagated dequeue
// compute its response so discarded blocks can no longer be needed, and
// (3) unlinks the obsolete prefix of the node's store (done by the caller,
// addBlock).

// splitIndex returns the index of the oldest block node v must keep; blocks
// with smaller indices are discarded by the caller (SplitBlock, lines
// 234-248, which returns the block whose index the caller splits at).
func (h *Handle[T]) splitIndex(v *node) int64 {
	return h.splitBlock(v).index
}

// splitBlock walks up to the root to find the most recent certainly-finished
// root block, then maps it back down to v via end(dir) indices. If any
// lookup on the way finds the block already discarded by another GC phase,
// the node's oldest surviving block is used instead (line 247): that GC
// already determined everything older is disposable.
func (h *Handle[T]) splitBlock(v *node) *block {
	var i int64
	if v.isRoot() {
		var m int64
		for k := range h.queue.last {
			h.counter.Read(1)
			m = max(m, h.queue.last[k].Load())
		}
		if m < 1 {
			return h.oldest(v)
		}
		i = m - 1
	} else {
		i = h.splitBlock(v.parent).end(v.childDir())
	}
	if b, err := h.readBlock(v, i); err == nil {
		return b
	}
	return h.oldest(v)
}

// help completes every pending dequeue that has been propagated to the root
// by computing its response and publishing it on the leaf block (Help, lines
// 298-306). Only each leaf's newest block can be pending: earlier blocks
// belong to operations their process finished before invoking the next one.
// A batch dequeue block is helped as a unit: all deqCount of its responses
// are computed before any of its blocks may be discarded, so the owner can
// always recover the whole batch from the published response.
func (h *Handle[T]) help() {
	for _, leaf := range h.queue.leaves {
		b := h.newest(leaf)
		lb := leafOf[T](b)
		if !lb.isDeq || b.index == 0 || !h.propagated(leaf, b.index) {
			continue
		}
		res, err := h.completeDeqN(leaf, b.index, lb.deqCount)
		if err != nil {
			// Another GC already discarded this dequeue's blocks, so its
			// response was published then.
			continue
		}
		h.counter.CAS(lb.response.CompareAndSwap(nil, &res))
	}
}
