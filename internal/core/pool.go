package core

// Block arena.
//
// Every block comes from a per-handle source, with no synchronization:
//
//   - enqueue leaf blocks (newLeaf) from a bump slab of leafBlocks, and
//     dequeue leaf blocks (newHeader) from a bump slab of bare 24-byte
//     headers. A leaf block is published by a plain store to the handle's
//     own leaf, which cannot lose, so none is ever handed back.
//   - internal blocks (newBlock) from the spare slot first, then from a
//     bump slab of 40-byte innerBlocks. The spare slot holds the Refresh
//     candidate whose CAS lost. A handle recycles only the candidate it
//     just drew, and its next newBlock hands that one out again, so the
//     slot is empty whenever recycle fills it.
//
// A slab is one 64-block allocation, so the worst case (nothing to reuse)
// is 1 allocation per 64 blocks instead of 1 per block. Because published
// blocks are immortal (below), carving them out of shared slabs pins no
// memory that would otherwise be freed.
//
// Only never-published blocks are ever recycled. A block becomes shared the
// instant casBlock/storeBlock installs it; from then on concurrent readers
// may hold a reference indefinitely (the paper's searches walk arbitrarily
// old blocks), so published blocks are immortal here exactly as in the
// paper's GC'd-memory model. Because recycled blocks were never reachable by
// any other process, reuse cannot cause ABA: no CAS anywhere compares
// against a pointer to a block that was never published.
const slabBlocks = 64 // blocks per bump-allocator chunk

// newLeaf returns a zeroed enqueue block from the handle's leaf slab.
func (h *Handle[T]) newLeaf() *leafBlock[T] {
	if len(h.leafSlab) == 0 {
		h.leafSlab = make([]leafBlock[T], slabBlocks)
	}
	b := &h.leafSlab[0]
	h.leafSlab = h.leafSlab[1:]
	return b
}

// newHeader returns a zeroed bare header, a dequeue leaf block, from the
// handle's header slab.
func (h *Handle[T]) newHeader() *block {
	if len(h.deqSlab) == 0 {
		h.deqSlab = make([]block, slabBlocks)
	}
	b := &h.deqSlab[0]
	h.deqSlab = h.deqSlab[1:]
	return b
}

// newBlock returns a zeroed internal-node block from the spare slot or the
// bump slab, in that order.
func (h *Handle[T]) newBlock() *innerBlock {
	if b := h.spare; b != nil {
		h.spare = nil
		*b = innerBlock{}
		return b
	}
	if len(h.slab) == 0 {
		h.slab = make([]innerBlock, slabBlocks)
	}
	b := &h.slab[0]
	h.slab = h.slab[1:]
	return b
}

// recycle takes back a block obtained from newBlock that was never
// published (never passed to casBlock, or passed to it and lost — a lost
// casBlock leaves the candidate private: advance works on the block that
// actually got installed). Publishing a block and then recycling it would
// hand a live shared block to a future writer; don't.
func (h *Handle[T]) recycle(b *innerBlock) { h.spare = b }
