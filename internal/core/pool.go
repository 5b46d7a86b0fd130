package core

import "sync"

// Block arena.
//
// The original implementation allocated a fresh &block[T]{} for every append
// and for every Refresh candidate — O(log p) allocations per operation, which
// T10 showed dominates per-op cost well before root contention does. The
// arena removes almost all of them with a three-level scheme, fastest first:
//
//  1. per-handle spare stack: recycled candidate blocks that were never
//     published (a Refresh whose CAS lost, or was never attempted). Single
//     owner, no synchronization.
//  2. per-queue sync.Pool: overflow from spare stacks, so a handle that
//     mostly loses CASes feeds one that mostly wins, and recycled capacity
//     survives handle churn (the pool belongs to the queue, not the handle).
//  3. per-handle slab: a bump allocator over a 64-block chunk, refilled from
//     make when exhausted. This turns the worst case — nothing recyclable —
//     into 1 allocation per 64 blocks instead of 1 per block.
//
// Only never-published blocks are ever recycled. A block becomes shared the
// instant casBlock/storeBlock installs it; from then on concurrent readers
// may hold a reference indefinitely (the paper's searches walk arbitrarily
// old blocks), so published blocks are immortal here exactly as in the
// paper's GC'd-memory model. Because recycled blocks were never reachable by
// any other process, reuse cannot cause ABA: no CAS anywhere compares
// against a pointer to a block that was never published.
const (
	slabBlocks = 64 // blocks per bump-allocator chunk
	spareCap   = 16 // max blocks parked on a handle before spilling to the pool
)

// blockArena is the per-queue level of the scheme: a sync.Pool of
// never-published blocks shared by all handles.
type blockArena[T any] struct {
	pool sync.Pool // holds *block[T]
}

// newBlock returns a block whose fields are all zero, drawn from the spare
// stack, the shared pool, or the bump slab, in that order.
func (h *Handle[T]) newBlock() *block[T] {
	if n := len(h.spare) - 1; n >= 0 {
		b := h.spare[n]
		h.spare[n] = nil
		h.spare = h.spare[:n]
		b.reset()
		return b
	}
	if b, _ := h.queue.arena.pool.Get().(*block[T]); b != nil {
		b.reset()
		return b
	}
	if len(h.slab) == 0 {
		h.slab = make([]block[T], slabBlocks)
	}
	b := &h.slab[0]
	h.slab = h.slab[1:]
	return b
}

// recycle takes back a block obtained from newBlock that was never
// published (never passed to storeBlock or casBlock, whether the CAS won or
// lost — a lost casBlock leaves the candidate private: advance works on the
// block that actually got installed). Publishing a block and then recycling
// it would hand a live shared block to a future writer; don't.
func (h *Handle[T]) recycle(b *block[T]) {
	if len(h.spare) < spareCap {
		h.spare = append(h.spare, b)
		return
	}
	h.queue.arena.pool.Put(b)
}

// reset zeroes a recycled block field by field. A struct-literal assignment
// would copy the atomic super field and trip go vet's copylocks check; the
// Store is fine because the block is private to the caller here.
func (b *block[T]) reset() {
	var zero T
	b.sumEnq, b.sumDeq = 0, 0
	b.endLeft, b.endRight = 0, 0
	b.size = 0
	b.element = zero
	b.elems = nil
	b.super.Store(0)
}
