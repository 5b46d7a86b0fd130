package shard

import "repro/internal/metrics"

// Handle is a leased capability to operate on the fabric. A handle may be
// used by one goroutine at a time; per operation it loads the current
// topology once and works against that snapshot, deriving (and caching)
// one sub-handle per shard of the epoch. Enqueues are routed to the
// handle's home shard (preserving per-producer order even across a tree
// growth — see syncHome), dequeues roam the fabric via two-random-choice.
// There is one path per direction, EnqueueBatch and DequeueBatchAppend;
// single ops are the n=1 case, as a single op is the m=1 block in the tree
// below.
//
// The epoch cache pins the topology of the handle's last operation — for
// a handle that sits idle across a growth, that is the retired shards'
// queues — until the next operation refreshes it or Release drops it.
// Release handles you are not going to use; the service layer does this
// by reaping idle sessions.
type Handle[T any] struct {
	q    *Queue[T]
	slot int
	home int // shard index enqueues go to, fixed at Acquire
	rng  uint64

	// Epoch-scoped caches, rebuilt by refresh when the topology changes.
	// topo is the last topology this handle derived sub-handles for; sub
	// and deqs are indexed by that topology's shard indices.
	topo *topology[T]
	sub  []subHandle[T]
	deqs []int64 // per-shard successful-dequeue tally, folded on refresh/Release

	enq      int64          // home-shard enqueue tally
	lastHome *shardState[T] // home shard of the last enqueue path (nil: none yet), for growth detection

	// one is the batch of one that Enqueue and Dequeue hand to the batch
	// path: it lives in the handle so a single op allocates no slice, and
	// is zeroed after each use so the handle never retains a value.
	one [1]T

	counters   []*metrics.Counter // per-shard, only with WithShardMetrics
	counter    *metrics.Counter   // user-set aggregate counter (SetCounter), applied across refreshes
	counterSet bool               // SetCounter was called — its value (nil included) outlives refreshes
	released   bool
}

// Slot returns the registry slot this handle leases (useful in logs).
func (h *Handle[T]) Slot() int { return h.slot }

// Home returns the shard this handle routes enqueues to. Homes are
// assigned round-robin across leases so concurrent producers spread over
// the shards.
func (h *Handle[T]) Home() int { return h.home }

// SetCounter attaches a single step/CAS counter aggregating across every
// shard this handle touches (nil disables accounting). It overrides the
// per-shard counters installed by WithShardMetrics for this lease.
func (h *Handle[T]) SetCounter(c *metrics.Counter) {
	h.counters = nil
	h.counter = c
	h.counterSet = true // an explicit nil must survive epoch refreshes too
	for j := range h.sub {
		h.sub[j].SetCounter(c)
	}
}

// enter begins one fabric operation: it loads the current topology and
// publishes its epoch in the handle's slot, with a recheck so a growth
// racing the publication can rely on "no slot still publishes the old
// epoch" meaning "no operation still touches the old epoch's shard view".
// Callers must pair it with exit.
func (h *Handle[T]) enter() *topology[T] {
	for {
		t := h.q.topo.Load()
		h.q.slotEpochs[h.slot].v.Store(t.epoch)
		if h.q.topo.Load() == t {
			if h.topo != t {
				h.refresh(t)
			}
			return t
		}
	}
}

// exit ends the operation begun by enter.
func (h *Handle[T]) exit() { h.q.slotEpochs[h.slot].v.Store(0) }

// refresh re-targets the handle at topology t: it folds the tallies (and
// any per-shard counters) collected against the previous topology into
// that topology's shard states, then derives a sub-handle for every shard
// of t (a new topology replaces every shard).
func (h *Handle[T]) refresh(t *topology[T]) {
	if h.topo != nil {
		h.fold()
	}
	// Retired: do not pin its queue. The next enqueue finds no last home
	// and waits on the growth's migration barrier.
	h.lastHome = nil
	h.topo = t
	h.sub = make([]subHandle[T], len(t.shards))
	h.deqs = make([]int64, len(t.shards))
	for j := range t.shards {
		sh, err := t.shards[j].q.handle(h.slot)
		if err != nil {
			// Acquire grows the trees before it returns a slot they have no
			// leaf for, and trees never shrink, so this is unreachable.
			panic("shard: " + err.Error())
		}
		// Sub-handles are recycled across leases; clear (or set) whatever
		// counter the previous lessee left behind.
		sh.SetCounter(h.counter)
		h.sub[j] = sh
	}
	if !h.counterSet && h.q.cfg.perShard {
		h.counters = make([]*metrics.Counter, len(t.shards))
		for j := range h.counters {
			h.counters[j] = &metrics.Counter{}
			h.sub[j].SetCounter(h.counters[j])
		}
	}
}

// fold flushes the handle's buffered tallies into its cached topology's
// shard states. The states keep their identity even if the topology has
// since been superseded, and a state retired in the meantime forwards to
// its migration destination (sink), so folding into a stale epoch never
// loses recorded traffic.
func (h *Handle[T]) fold() {
	if h.enq != 0 {
		addTally(h.lastHome, h.enq, enqueuesOf[T])
		h.enq = 0
	}
	for j := range h.deqs {
		addTally(h.topo.shards[j], h.deqs[j], dequeuesOf[T])
		h.deqs[j] = 0
	}
	if h.counters != nil {
		h.q.mergeShardCounters(h.topo.shards, h.counters)
		h.counters = nil
	}
}

// syncHome checks the handle's home shard under topology t and — when
// that is not the shard the handle last enqueued to — blocks until t's
// migration drains complete, so the handle's residual elements reach the
// new home shard before the element about to be enqueued. The home index
// never changes, but a tree growth replaces the shard behind it, and a
// fresh lease has no last shard at all (it may arrive while a growth is
// still moving older elements into the shard it is about to use). This
// wait is the enqueue path's only blocking point (the other is the dequeue
// path's empty-certification wait), it is a no-op unless a migration is in
// flight, and the growth that owns the drain never waits on new-epoch
// operations, so it cannot deadlock.
func (h *Handle[T]) syncHome(t *topology[T]) {
	if s := t.shards[h.home]; s != h.lastHome {
		<-t.migrationsDone
		h.lastHome = s
	}
}

// Enqueue appends v to the handle's home shard: EnqueueBatch of one. It
// returns ErrClosed once the fabric is closed; an enqueue that began before
// Close completed may still be admitted.
func (h *Handle[T]) Enqueue(v T) error {
	h.one[0] = v
	err := h.EnqueueBatch(h.one[:])
	h.one = [1]T{}
	return err
}

// EnqueueBatch appends all of vs to the handle's home shard as one multi-op
// leaf block: the whole batch rides a single sub-call and a single
// propagation pass, and because it targets one shard in one block, the
// batch's elements stay contiguous in that shard's FIFO order — per-producer
// order is preserved exactly as for single enqueues. It returns ErrClosed
// once the fabric is closed (the batch is then not enqueued at all; batches
// are all-or-nothing). vs is copied; the caller keeps ownership.
func (h *Handle[T]) EnqueueBatch(vs []T) error {
	h.check()
	if len(vs) == 0 {
		return nil
	}
	if h.q.closed.Load() {
		return ErrClosed
	}
	t := h.enter()
	h.syncHome(t)
	h.sub[h.home].EnqueueBatch(vs)
	h.enq += int64(len(vs))
	// The elements are at the shard's root before EnqueueBatch returns
	// (propagation completes first), so setting the bit here serializes
	// after a root state that a concurrent clear-then-recheck in
	// batchFrom will see.
	t.bitmap.set(h.home)
	h.exit()
	return nil
}

// Dequeue removes an element from some nonempty shard: DequeueBatchAppend
// of one. The returned element is the head of its shard, so FIFO order
// holds per shard (and per producer) but not across shards; ok == false is
// the emptiness verdict of a short batch.
func (h *Handle[T]) Dequeue() (T, bool) {
	_, got := h.DequeueBatchAppend(h.one[:0], 1)
	v := h.one[0]
	h.one = [1]T{}
	return v, got == 1
}

// DequeueBatch removes up to n elements from the fabric, returning them
// with their count (len of the result); see DequeueBatchAppend.
func (h *Handle[T]) DequeueBatch(n int) ([]T, int) {
	return h.DequeueBatchAppend(nil, n)
}

// DequeueBatchAppend appends up to n dequeued elements to dst and returns
// the (possibly grown) slice with the count actually pulled; callers that
// dequeue in a loop (the server's reply path) reuse one scratch slice
// across calls. It first drains the home shard (locality fast path), then
// refills by two-random-choice over the nonempty bitmap, and finally
// certifies emptiness with a deterministic sweep of all shards; each visit
// is a root read, plus one multi-op sub-dequeue for everything still missing
// if it read nonempty (batchFrom). Values pulled from the same shard are
// contiguous and FIFO-ordered; values of different shards may interleave.
//
// A count below n is a true emptiness verdict — every shard was observed
// empty after the batch's last successful pull — even across a tree
// growth: if its migration is still draining retired shards when the sweep
// comes up short, the call waits for the drain to complete (elements in
// flight are owed to the successors) and sweeps again. That wait — bounded
// by the retired backlog, outside the epoch-publication window — is the
// dequeue path's only blocking point (the enqueue path's is syncHome's
// growth barrier) and arises only mid-migration on an otherwise drained
// fabric.
func (h *Handle[T]) DequeueBatchAppend(dst []T, n int) ([]T, int) {
	h.check()
	if n <= 0 {
		return dst, 0
	}
	base := len(dst)
	target := base + n
	out := dst
	for {
		t := h.enter()
		// Sample the migration state BEFORE sweeping: a drain that
		// completes mid-sweep may land its elements in successor shards the
		// sweep has already passed, so only a sweep that started with no
		// migration pending may certify emptiness.
		migrating := t.retired.Load() != nil
		out = h.batchSweep(t, target, out)
		h.exit()
		if len(out) >= target || !migrating {
			return out, len(out) - base
		}
		<-t.migrationsDone
	}
}

// batchSweep runs DequeueBatchAppend's three phases against one topology
// snapshot, appending to out until len(out) reaches the absolute target n.
func (h *Handle[T]) batchSweep(t *topology[T], n int, out []T) []T {
	home := h.home
	// Locality fast path: the home shard first. Producers-turned-consumers
	// (and symmetric workloads like pairs) find their own elements there
	// without touching other shards' cache lines.
	if t.bitmap.isSet(home) {
		out = h.batchFrom(t, home, n, out)
	}
	// Guided attempts: two-random-choice over the nonempty bitmap.
	for attempt := 0; attempt < 2 && len(out) < n; attempt++ {
		j := h.pickShard(t)
		if j < 0 {
			break
		}
		out = h.batchFrom(t, j, n, out)
	}
	// Certification sweep: every shard, starting at home so concurrent
	// dequeuers spread out. An empty shard answers at its root read and a
	// sub-dequeue is wait-free, so the whole operation is wait-free.
	for i := 0; i < len(t.shards) && len(out) < n; i++ {
		j := home + i
		if j >= len(t.shards) {
			j -= len(t.shards)
		}
		out = h.batchFrom(t, j, n, out)
	}
	return out
}

// batchFrom pulls what out still lacks from shard j and maintains the
// nonempty bitmap. It reads the shard's root first and issues the multi-op
// sub-dequeue only if the root holds elements: a root block of size 0 IS the
// shard's null answer, so an empty shard costs a load — no block appended,
// propagated, allocated or (on core) retained. The block read is the newest
// installed one (bounded: the root's Max; core: blocks[head-1], and every
// refresh ends in advance(v, hd) before propagate returns), hence at least
// as new as the block of every operation that has returned: the null
// linearizes right after it — after every operation that returned before
// the read, before every one that starts later (TestLenCoversCompletedOps;
// cross-shard order is relaxed anyway). It is charged as one null
// sub-operation of two reads to the counter the sub-dequeue would have used.
//
// A shard that filled the whole request may well have more elements, so
// only a short pull or an empty read clears the bit — and then re-sets it
// if elements raced in between: an enqueue reaches the root before its
// bitmap set (see EnqueueBatch), so either this len read sees it, or the
// enqueuer's own set lands after the clear.
func (h *Handle[T]) batchFrom(t *topology[T], j, n int, out []T) []T {
	want, got := n-len(out), 0
	if t.shards[j].len() > 0 {
		out, got = h.sub[j].DequeueBatchAppend(out, want)
		h.deqs[j] += int64(got)
	} else {
		c := h.counter
		if h.counters != nil {
			c = h.counters[j]
		}
		c.BeginOp()
		c.Read(2)
		c.EndBatch(0, 0, int64(want))
	}
	if got < want {
		t.bitmap.clear(j)
		if t.shards[j].len() > 0 {
			t.bitmap.set(j)
		}
	}
	return out
}

// pickChoices is d, the number of nonempty shards a guided attempt
// samples before committing to the fullest.
const pickChoices = 2

// pickShard samples up to pickChoices set bits from the nonempty bitmap
// and returns the candidate with the largest backlog estimate, or -1 when
// no bit was observed set.
func (h *Handle[T]) pickShard(t *topology[T]) int {
	best := -1
	var bestSize int64 = -1
	for i := 0; i < pickChoices; i++ {
		j := t.bitmap.randomSet(&h.rng)
		if j < 0 {
			break
		}
		if sz := int64(t.shards[j].len()); sz > bestSize {
			best, bestSize = j, sz
		}
	}
	return best
}

// Drain dequeues until the fabric certifies empty, calling fn for each
// element, and returns the number drained. On a closed fabric with no other
// consumers running, Drain leaves the fabric empty; with concurrent
// consumers it simply stops once a full sweep finds nothing.
func (h *Handle[T]) Drain(fn func(T)) int {
	n := 0
	for {
		v, ok := h.Dequeue()
		if !ok {
			return n
		}
		if fn != nil {
			fn(v)
		}
		n++
	}
}

// Release returns the handle's slot to the registry so another goroutine
// can lease it, and (under WithShardMetrics) folds the lease's per-shard
// tallies and counters into the fabric totals. The handle must not be used
// afterwards (other methods panic); Release itself is idempotent — a
// second Release is a defined no-op, so teardown paths may release
// defensively.
func (h *Handle[T]) Release() {
	if h.released {
		return
	}
	h.released = true
	h.fold()
	// Drop the epoch cache so a parked-but-released handle cannot pin a
	// superseded topology (and its retired shards' queues) alive.
	h.topo = nil
	h.sub = nil
	h.deqs = nil
	h.q.reg.release(h.slot)
}

// check panics on use-after-Release — always a caller bug, and one that
// would otherwise silently corrupt another goroutine's lease.
func (h *Handle[T]) check() {
	if h.released {
		panic("shard: handle used after Release")
	}
}
