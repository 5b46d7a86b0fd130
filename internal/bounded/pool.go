package bounded

// Block arena for the bounded variant. Internal-node blocks are carved from
// per-handle bump slabs of 64 pointer-free 48-byte blocks (block.go), one
// slab per tree level. A handle refreshes only the nodes on its own leaf's
// path, one per level, so each slab holds blocks of one node, carved in
// increasing index order: every block the handle installs at a node has a
// larger index than the one before, because the node's head only moves
// forward.
//
// That is what keeps slabs inside Theorem 31's space bound. A slab lives as
// long as any one of its blocks does, but a GC phase only ever drops a
// prefix of a node's blocks (store.drop), so the handle's dead blocks
// at that node are a prefix of what it carved there. Every slab before the
// one holding its oldest live block is wholly dead and the Go GC reclaims
// it; every slab after it is wholly live. At most one partly dead slab
// exists per (handle, node), pinning at most 63 dead blocks (3 KiB), plus
// the current slab's uncarved rest: O(p log p) bytes in all, independent of
// the queue's length.
//
// Leaf blocks (leafBlock) stay one heap object each, allocated by the
// operation that installs them and published by a plain store to the
// handle's own leaf, which cannot lose. A slab of them would pin the
// payloads of its dead blocks, values and batch slices, until its last
// block dies: 64-block leaf slabs raised svc-batch's peak RSS from
// 14.0-14.3 MiB to 15.8-17.1 MiB and saved no CPU.
//
// Only never-published blocks are recycled: a Refresh candidate whose CAS
// lost was never reachable from a store, so reuse cannot race with helpers
// or searches. recycle un-carves the candidate: a handle recycles only the
// candidate it just drew at that level, so stepping the level's cursor back
// hands the same block out next. Blocks that were published are reclaimed
// by the Go GC once a GC phase has unlinked them and their slab holds no
// live block; delegating that reclamation to the runtime is what makes it
// safe without epochs or hazard pointers.

const slabBlocks = 64 // blocks per bump-allocator chunk

// slab is one level's bump allocator: blocks[:n] have been handed out.
type slab struct {
	blocks *[slabBlocks]block
	n      int
}

// newBlock returns a zeroed block for internal node v from the slab of v's
// level, starting a fresh slab when that one is used up.
func (h *Handle[T]) newBlock(v *node) *block {
	s := &h.slabs[v.depth]
	if s.blocks == nil || s.n == slabBlocks {
		s.blocks, s.n = new([slabBlocks]block), 0
	}
	b := &s.blocks[s.n]
	s.n++
	return b
}

// recycle takes back b, the block newBlock(v) returned last, which was
// never published (its CAS lost): it zeroes b and steps the level's cursor
// back over it.
func (h *Handle[T]) recycle(v *node, b *block) {
	s := &h.slabs[v.depth]
	s.n--
	if b != &s.blocks[s.n] {
		panic("bounded: recycled block is not the last one carved at its level")
	}
	*b = block{}
}
