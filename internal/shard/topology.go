package shard

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/metrics"
)

// topology is one immutable epoch of the fabric's shard set. The Queue
// holds exactly one live topology behind an atomic pointer; every fabric
// operation loads it once and works against that snapshot, so an operation
// never observes a half-installed shard set. An Acquire that grows the
// shards' trees installs a successor (epoch+1) rather than mutating the
// current one; the successor keeps k and replaces every shard, shards[j]
// continuing shards[j] of the epoch before.
type topology[T any] struct {
	// epoch numbers topologies from 1 (0 is the "idle" sentinel published
	// by handles between operations, see Queue.slotEpochs).
	epoch uint64

	// leaves is the leaf count of every shard's ordering tree: slots
	// 0..leaves-2 are leasable, leaves-1 is the maintenance slot. It never
	// decreases from one epoch to the next.
	leaves int

	// shards is the live shard set; its length is the fabric's k.
	shards []*shardState[T]

	// bitmap is this epoch's nonempty-shard index, sized to len(shards).
	// Each epoch owns its own bitmap: a stale handle setting a bit on a
	// superseded epoch's bitmap is harmless because dequeue correctness
	// never depends on the bitmap (there is always a full-sweep fallback).
	bitmap bitmap

	// retired holds the previous epoch's shards, until their residual
	// elements are migrated into their successors. They are invisible to
	// dequeues of this epoch — only the migration drain (which runs after
	// the grace period, so it has exclusive access) touches them; Len
	// reads them so the backlog owed to the successors stays counted. The
	// pointer is cleared once the drain completes, so a topology that
	// stays current for a long time does not pin the retired shards'
	// memory.
	retired atomic.Pointer[[]*shardState[T]]

	// migrationsDone is closed once every retired shard has been drained
	// into its successor (at New, when there is nothing to migrate). A
	// producer whose home shard changed — replaced by a growth, or never
	// used by a fresh lease — blocks its next enqueue on this channel, so
	// its residual elements reach the new home shard before any of its new
	// ones: the ordering that keeps per-producer FIFO intact across epochs.
	migrationsDone chan struct{}
}

// slotEpoch is one handle slot's published operation epoch, padded so
// concurrent publishers never false-share. A slot publishes the epoch of
// the topology its current operation runs against and republishes 0 when
// the operation completes; a growth's grace wait spins until no slot still
// publishes the superseded epoch.
type slotEpoch struct {
	v atomic.Uint64
	_ [120]byte
}

// maintSlot is the sub-queue handle slot reserved for the fabric's own
// maintenance operations (migration drains): the last leaf of t's trees.
// Acquire grows the trees before it hands out this slot, so maintenance
// never competes with leases.
func (t *topology[T]) maintSlot() int { return t.leaves - 1 }

// ResizeStats counts topology changes — tree growths — over the fabric's
// lifetime. The JSON field names are a stable encoding consumed by the
// service layer's /statsz endpoint.
type ResizeStats struct {
	Epoch       uint64 `json:"epoch"`        // current topology epoch (1 = as built)
	Leaves      int    `json:"leaves"`       // leaves of every shard's ordering tree now
	LeafGrowths int64  `json:"leaf_growths"` // Acquire calls that grew the trees
	Migrated    int64  `json:"migrated"`     // elements drained from retired shards into their successors
}

// Epoch returns the current topology epoch. It starts at 1 and increments
// with every tree growth.
func (q *Queue[T]) Epoch() uint64 { return q.topo.Load().epoch }

// ResizeStats returns the fabric's topology-change counters.
func (q *Queue[T]) ResizeStats() ResizeStats {
	t := q.topo.Load()
	return ResizeStats{
		Epoch:       t.epoch,
		Leaves:      t.leaves,
		LeafGrowths: q.leafGrowths.Load(),
		Migrated:    q.migrated.Load(),
	}
}

// growFor grows every shard's tree so that it has a leaf for slot, which
// Acquire has just popped: to twice the current leaves, or slot+2 if that
// is more, capped at maxHandles+1. Growths serialize on growMu, and one
// runs on a closed fabric too. It is a no-op when a concurrent Acquire
// grew the trees far enough first.
func (q *Queue[T]) growFor(slot int) error {
	q.growMu.Lock()
	defer q.growMu.Unlock()
	old := q.topo.Load()
	if slot < old.maintSlot() {
		return nil
	}
	leaves := min(max(2*old.leaves, slot+2), q.cfg.maxHandles+1)
	nt, err := q.successor(old, len(old.shards), leaves)
	if err != nil {
		return err
	}
	q.install(old, nt)
	q.leafGrowths.Add(1)
	return nil
}

// successor builds, without installing it, the topology after old with k
// fresh shards of the given leaf count. It is the one place shards are
// built, so a backend failure leaves the current topology fully intact.
func (q *Queue[T]) successor(old *topology[T], k, leaves int) (*topology[T], error) {
	nt := &topology[T]{
		epoch:          old.epoch + 1,
		leaves:         leaves,
		shards:         make([]*shardState[T], k),
		migrationsDone: make(chan struct{}),
	}
	for j := range nt.shards {
		sub, err := newSubQueue[T](q.cfg, leaves)
		if err != nil {
			return nil, err
		}
		nt.shards[j] = &shardState[T]{q: sub, counter: &metrics.Counter{}}
	}
	nt.bitmap.init(k)
	return nt, nil
}

// install makes nt, built by successor from old, the current topology and
// completes the move onto it; the caller holds growMu. Every shard of old
// is retired into nt's shard at the same index: after the grace period it
// is drained, in its FIFO order, into that successor, which also inherits
// its tallies.
func (q *Queue[T]) install(old, nt *topology[T]) {
	retired := old.shards
	nt.retired.Store(&retired)

	// A handle still on the old topology may keep enqueueing into a
	// retired shard; the drain below starts only after the grace period,
	// so those stragglers are captured in order.
	q.topo.Store(nt)

	// Grace period: wait until no operation still runs against the old
	// epoch. Afterwards the retired shards are unreachable by every handle
	// (the new topology does not list them), so the drain below observes a
	// sealed FIFO stream and "drained empty" is a final verdict.
	q.awaitEpochRetired(old.epoch)

	var moved int64
	for j, s := range old.shards {
		dst := nt.shards[j]
		moved += q.drainInto(s, old, nt, j)
		// The successor is the same shard continued, so the drain is not
		// traffic; it inherits the retired shard's recorded history —
		// traffic tallies and cost-model counters — and the merged-into
		// pointer routes any tallies still buffered in live handles there
		// too (addTally hands over a fold that lands after this), so
		// lifetime totals survive the migration exactly.
		s.mergedInto.Store(dst)
		dst.enqueues.Add(s.enqueues.Swap(0))
		dst.dequeues.Add(s.dequeues.Swap(0))
		q.mu.Lock()
		dst.counter.Merge(s.counter)
		q.mu.Unlock()
	}
	// The retired shards are empty now; unpin them so their queues (whole
	// block histories, for the core backend) can be collected even if this
	// topology stays current indefinitely.
	nt.retired.Store(nil)
	close(nt.migrationsDone)

	// Sync the bitmap: enqueues that completed on the old epoch set only
	// the old bitmap. Correctness never depends on this (dequeues fall back
	// to a full sweep), it just keeps two-random-choice well guided.
	for j, s := range nt.shards {
		if s.len() > 0 {
			nt.bitmap.set(j)
		}
	}
	q.migrated.Add(moved)
}

// awaitEpochRetired spins until no handle slot publishes epoch e anymore.
// Publication follows a publish-then-recheck protocol (see Handle.enter),
// so once this returns, any operation that transiently published e has
// re-read the topology, seen the new epoch, and republished — it never
// touched a shard under e. Operations are wait-free and short, so the spin
// is brief; a growth itself is not (and need not be) wait-free.
func (q *Queue[T]) awaitEpochRetired(e uint64) {
	for i := range q.slotEpochs {
		for q.slotEpochs[i].v.Load() == e {
			runtime.Gosched()
		}
	}
}

// drainInto migrates every residual element of src, a shard of old that
// nt retires, into nt.shards[dst], preserving the src stream's FIFO order,
// and returns the element count. It runs with exclusive access to src
// (post grace period) through each topology's reserved maintenance slot,
// in bounded batches through one reused buffer (EnqueueBatch copies) so
// one giant backlog does not allocate a giant slice.
func (q *Queue[T]) drainInto(src *shardState[T], old, nt *topology[T], dst int) int64 {
	srcH, err := src.q.handle(old.maintSlot())
	if err != nil {
		panic(fmt.Sprintf("shard: maintenance handle on retired shard: %v", err))
	}
	dstH, err := nt.shards[dst].q.handle(nt.maintSlot())
	if err != nil {
		panic(fmt.Sprintf("shard: maintenance handle on shard %d: %v", dst, err))
	}
	const chunk = 256
	buf := make([]T, 0, chunk)
	var moved int64
	for {
		vs, got := srcH.DequeueBatchAppend(buf, chunk)
		if got == 0 {
			return moved
		}
		dstH.EnqueueBatch(vs)
		nt.bitmap.set(dst)
		moved += int64(got)
	}
}
