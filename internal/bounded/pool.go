package bounded

// Block arena for the bounded variant. Internal-node blocks come from the
// handle's spare slot first, then from the heap, one object each. Unlike
// internal/core/pool.go there is no bump slab: the bounded queue's GC
// repeatedly discards old blocks, and carving blocks out of shared 64-block
// slabs would pin a whole slab in memory for as long as any one of its
// blocks is live — exactly the space behaviour Theorem 31 bounds.
//
// The arena holds internal-node blocks only: the pointer-free 48-byte block
// of block.go, which recycling resets by clearing six words. Refresh runs
// on internal nodes alone, so every candidate it can lose is one. Leaf
// blocks (leafBlock) are allocated fresh by the operation that installs
// them and published by a plain store to the handle's own leaf, which
// cannot lose.
//
// Only never-published blocks are recycled: a Refresh candidate whose
// casTree lost stays private, so reuse cannot race with helpers or
// searches. The losing t2 tree is the only structure referencing it and is
// discarded: building t2 wrote into memory shared with the winner only t's
// newest block, which t had already published (pbst.Seq's contract: an
// append stores the receiver's largest value in the shared tail slot and
// keeps the new one in its own header). The candidate itself sits in t2's
// header alone, and a losing t2 is never extended. recycle parks the
// candidate in the spare slot: a handle recycles only the candidate it just
// drew, and its next newBlock hands that one out again, so the slot is
// empty whenever recycle fills it. Blocks
// that were published are reclaimed by the Go GC once the paper's GC phase
// drops them from every live tree — pbst's DropBelow copies the chunk it
// cuts and clears what lies left of it, so they are unreachable from the
// new tree and not merely uncounted. Delegating that reclamation to the
// runtime is what makes it safe without epochs or hazard pointers.

// newBlock returns a zeroed internal-node block from the spare slot or the
// heap, in that order.
func (h *Handle[T]) newBlock() *block {
	if b := h.spare; b != nil {
		h.spare = nil
		*b = block{}
		return b
	}
	return &block{}
}

// recycle takes back a block obtained from newBlock that was never
// published (never reachable from a tree installed by storeTree/casTree).
func (h *Handle[T]) recycle(b *block) { h.spare = b }
