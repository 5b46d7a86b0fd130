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
// never observes a half-installed shard set. Resize installs a successor
// (epoch+1) rather than mutating the current one.
//
// Shard identity is positional and prefix-stable: a grow appends fresh
// shards after the survivors, a shrink truncates the suffix, so
// shards[j] of epoch e+1 is the same *shardState as shards[j] of epoch e
// for every j < min(k_old, k_new). Handles exploit this to reuse their
// per-shard sub-handles across a refresh instead of re-deriving all of
// them.
type topology[T any] struct {
	// epoch numbers topologies from 1 (0 is the "idle" sentinel published
	// by handles between operations, see Queue.slotEpochs).
	epoch uint64

	// shards is the live shard set; its length is the fabric's current k.
	shards []*shardState[T]

	// bitmap is this epoch's nonempty-shard index, sized to len(shards).
	// Each epoch owns its own bitmap: a stale handle setting a bit on a
	// superseded epoch's bitmap is harmless because dequeue correctness
	// never depends on the bitmap (there is always a full-sweep fallback).
	bitmap bitmap

	// retired holds the shards a shrink removed from service, until their
	// residual elements are migrated into the survivors. They are invisible
	// to dequeues of this epoch — only the migration drain (which runs
	// after the grace period, so it has exclusive access) touches them;
	// Len reads them so the backlog owed to the survivors stays counted.
	// The pointer is cleared once the drain completes, so a topology that
	// stays current for a long time (the scaled-down steady state) does
	// not pin the retired shards' memory.
	retired atomic.Pointer[[]*shardState[T]]

	// migrationsDone is closed once every retired shard has been drained
	// into its destination (immediately at install when there is nothing to
	// migrate). A producer whose home moved blocks its next enqueue on this
	// channel, so its residual elements reach the new home shard before any
	// of its new ones — the ordering that keeps per-producer FIFO intact
	// across epochs.
	migrationsDone chan struct{}
}

// slotEpoch is one handle slot's published operation epoch, padded so
// concurrent publishers never false-share. A slot publishes the epoch of
// the topology its current operation runs against and republishes 0 when
// the operation completes; Resize's grace wait spins until no slot still
// publishes the superseded epoch.
type slotEpoch struct {
	v atomic.Uint64
	_ [120]byte
}

// effHome maps a slot's persistent home to an index of topology t. The
// persistent value is always canonical for the latest topology (Resize
// rewrites it under the mod rule below before it migrates); the mod here
// only covers the instant between installing a shrunk topology and
// rewriting the homes, and it yields exactly the value the rewrite will
// store — so a handle racing that window computes the same home either
// way.
func (q *Queue[T]) effHome(slot int, t *topology[T]) int {
	return int(q.homes[slot].v.Load()) % len(t.shards)
}

// maintSlot is the sub-queue handle slot reserved for the fabric's own
// maintenance operations (migration drains). Sub-queues are built with one
// slot beyond cfg.maxHandles so maintenance never competes with leases.
func (q *Queue[T]) maintSlot() int { return q.cfg.maxHandles }

// ResizeStats counts topology changes over the fabric's lifetime. The JSON
// field names are a stable encoding consumed by the service layer's
// /statsz endpoint.
type ResizeStats struct {
	Epoch    uint64 `json:"epoch"`    // current topology epoch (1 = as built)
	Grows    int64  `json:"grows"`    // completed Resize calls that added shards
	Shrinks  int64  `json:"shrinks"`  // completed Resize calls that removed shards
	Migrated int64  `json:"migrated"` // elements drained from retired shards into survivors
}

// Epoch returns the current topology epoch. It starts at 1 and increments
// with every effective Resize.
func (q *Queue[T]) Epoch() uint64 { return q.topo.Load().epoch }

// ResizeStats returns the fabric's topology-change counters.
func (q *Queue[T]) ResizeStats() ResizeStats {
	return ResizeStats{
		Epoch:    q.topo.Load().epoch,
		Grows:    q.grows.Load(),
		Shrinks:  q.shrinks.Load(),
		Migrated: q.migrated.Load(),
	}
}

// Resize changes the fabric's shard count to k while operations continue.
//
// A grow appends fresh shards; nothing moves, existing producers keep
// their home shards (so per-producer FIFO is trivially preserved) and new
// leases spread over the wider set. A shrink retires the suffix
// [k, k_old): producers homed there are re-homed deterministically to
// home mod k, and the retired shards' residual elements are drained — in
// their shard-FIFO order — into that same destination, so conservation is
// exact and a re-homed producer's old elements land in its new home shard
// before any of its new ones (the producer's next enqueue blocks until
// the drain completes, as does a dequeue that would otherwise certify the
// fabric empty mid-drain; all other operations stay non-blocking).
//
// Resize serializes with other Resize calls, returns once migration is
// complete, and is a no-op when k equals the current shard count. It
// fails on a closed fabric: Close hands the backlog to the consumers, and
// moving elements underneath a drain would serve nobody.
func (q *Queue[T]) Resize(k int) error {
	if k < 1 {
		return fmt.Errorf("%w (got %d)", ErrBadShards, k)
	}
	q.resizeMu.Lock()
	defer q.resizeMu.Unlock()
	if q.closed.Load() {
		return ErrClosed
	}
	old := q.topo.Load()
	kOld := len(old.shards)
	if k == kOld {
		return nil
	}

	nt := &topology[T]{
		epoch:          old.epoch + 1,
		migrationsDone: make(chan struct{}),
	}
	var retired []*shardState[T]
	if k > kOld {
		// Build the new shards before installing anything, so a backend
		// failure leaves the old topology fully intact.
		fresh := make([]*shardState[T], 0, k-kOld)
		for j := kOld; j < k; j++ {
			sub, err := newSubQueue[T](q.cfg)
			if err != nil {
				return err
			}
			fresh = append(fresh, &shardState[T]{q: sub, counter: &metrics.Counter{}})
		}
		nt.shards = append(append(make([]*shardState[T], 0, k), old.shards...), fresh...)
	} else {
		nt.shards = old.shards[:k:k]
		retired = old.shards[k:]
		nt.retired.Store(&retired)
	}
	nt.bitmap.init(k)
	for j, s := range nt.shards {
		if s.len() > 0 {
			nt.bitmap.set(j)
		}
	}

	// Install the new epoch first, then re-home: a handle that loads the
	// new topology before its home is rewritten computes the same
	// destination via the effHome mod rule, while a handle still on the old
	// topology may keep enqueueing into a retired shard — the drain below
	// starts only after the grace period, so those stragglers are captured
	// in order.
	q.topo.Store(nt)
	if k < kOld {
		for i := range q.homes {
			if h := q.homes[i].v.Load(); h >= int64(k) {
				q.homes[i].v.Store(h % int64(k))
			}
		}
	}

	// Grace period: wait until no operation still runs against the old
	// epoch. Afterwards the retired shards are unreachable by every handle
	// (the new topology does not list them), so the drain below observes a
	// sealed FIFO stream and "drained empty" is a final verdict.
	q.awaitEpochRetired(old.epoch)

	var moved int64
	for i, s := range retired {
		oldIdx := k + i
		dst := nt.shards[oldIdx%k]
		moved += q.drainInto(s, nt, oldIdx%k)
		// The destination inherits the retired shard's recorded history —
		// traffic tallies and cost-model counters — and the merged-into
		// pointer routes any tallies still buffered in live handles there
		// too, so lifetime totals survive the shrink. (A fold that resolved
		// its sink just before this store may still land on the retired
		// state; that sliver is bounded by one in-flight fold per handle.)
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

	// Re-sync the bitmap: enqueues that completed on the old epoch set only
	// the old bitmap. Correctness never depends on this (dequeues fall back
	// to a full sweep), it just keeps two-random-choice well guided.
	for j, s := range nt.shards {
		if s.len() > 0 {
			nt.bitmap.set(j)
		}
	}

	if k > kOld {
		q.grows.Add(1)
	} else {
		q.shrinks.Add(1)
		q.migrated.Add(moved)
	}
	return nil
}

// awaitEpochRetired spins until no handle slot publishes epoch e anymore.
// Publication follows a publish-then-recheck protocol (see Handle.enter),
// so once this returns, any operation that transiently published e has
// re-read the topology, seen the new epoch, and republished — it never
// touched a shard under e. Operations are wait-free and short, so the spin
// is brief; Resize itself is not (and need not be) wait-free.
func (q *Queue[T]) awaitEpochRetired(e uint64) {
	for i := range q.slotEpochs {
		for q.slotEpochs[i].v.Load() == e {
			runtime.Gosched()
		}
	}
}

// drainInto migrates every residual element of retired shard src into
// nt.shards[dst], preserving the src stream's FIFO order, and returns the
// element count. It runs with exclusive access to src (post grace period)
// through the reserved maintenance slot, in bounded batches through one
// reused buffer (EnqueueBatch copies) so one giant backlog does not
// allocate a giant slice. The moved elements are tallied
// as dequeues on src and enqueues on dst, keeping each shard's
// enqueues-dequeues == len audit exact.
func (q *Queue[T]) drainInto(src *shardState[T], nt *topology[T], dst int) int64 {
	srcH, err := src.q.handle(q.maintSlot())
	if err != nil {
		panic(fmt.Sprintf("shard: maintenance handle on retired shard: %v", err))
	}
	dstH, err := nt.shards[dst].q.handle(q.maintSlot())
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
		src.dequeues.Add(int64(got))
		nt.shards[dst].enqueues.Add(int64(got))
		moved += int64(got)
	}
}
