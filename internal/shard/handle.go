package shard

import "repro/internal/metrics"

// Handle is a leased capability to operate on the fabric. A handle may be
// used by one goroutine at a time; it owns its slot's handle in every
// shard, which a growth keeps on its leaf. Enqueues are routed to the
// handle's home shard (preserving per-producer order). Dequeues stick to
// the shard that served the handle's last one, for up to stickyPulls
// calls, and otherwise roam the fabric via two-random-choice; a handle
// starts sticky on its home. There is one path per direction,
// EnqueueBatch and DequeueBatchAppend; single ops are the n=1 case, as a
// single op is the m=1 block in the tree below. Every operation passes the
// fabric's growth gate (enter), its one blocking point: it waits only
// while a growth runs, and a growth costs O(k·p).
type Handle[T any] struct {
	q    *Queue[T]
	slot int
	home int // shard index enqueues go to, fixed at Acquire
	rng  uint64

	// sticky is the shard the handle's dequeues try first, and budget the
	// calls it may still serve before the handle samples again.
	sticky int
	budget int

	sub []subHandle[T] // the slot's handle in each shard

	// one is the batch of one that Enqueue and Dequeue hand to the batch
	// path: it lives in the handle so a single op allocates no slice, and
	// is zeroed after each use so the handle never retains a value.
	one [1]T

	counter  *metrics.Counter // user-set aggregate counter (SetCounter)
	released bool
}

// Slot returns the registry slot this handle leases (useful in logs).
func (h *Handle[T]) Slot() int { return h.slot }

// Home returns the shard this handle routes enqueues to. Homes are
// assigned round-robin across leases so concurrent producers spread over
// the shards.
func (h *Handle[T]) Home() int { return h.home }

// SetCounter attaches a single step/CAS counter aggregating across every
// shard this handle touches (nil disables accounting).
func (h *Handle[T]) SetCounter(c *metrics.Counter) {
	h.counter = c
	for _, sh := range h.sub {
		sh.SetCounter(c)
	}
}

// enter begins one fabric operation: it marks the handle's slot busy and
// then checks the growth gate, both seq-cst, Dekker-style against grow,
// which closes the gate and then checks every slot. So either the
// operation sees the gate closed, or the growth sees the slot busy and
// waits for exit. At a closed gate the operation clears its mark and
// waits for the growth to end. Callers must pair it with exit.
func (h *Handle[T]) enter() {
	busy := &h.q.busy[h.slot].v
	for {
		busy.Store(1)
		g := h.q.growing.Load()
		if g == nil {
			return
		}
		busy.Store(0)
		<-g.done
	}
}

// exit ends the operation begun by enter.
func (h *Handle[T]) exit() { h.q.busy[h.slot].v.Store(0) }

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
	h.enter()
	h.sub[h.home].EnqueueBatch(vs)
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
// across calls. It first pulls from the handle's sticky shard (locality:
// the shard that served its last call), then refills by two-random-choice
// over the shards' roots, and finally certifies emptiness with a
// deterministic sweep of all shards; each visit is a root read, plus one
// multi-op sub-dequeue for everything still missing if it read nonempty.
// Values pulled from the same shard are contiguous and FIFO-ordered;
// values of different shards may interleave.
// A count below n is a true emptiness verdict: every shard was observed
// empty after the batch's last successful pull.
func (h *Handle[T]) DequeueBatchAppend(dst []T, n int) ([]T, int) {
	h.check()
	if n <= 0 {
		return dst, 0
	}
	base := len(dst)
	h.enter()
	out := h.batchSweep(base+n, dst)
	h.exit()
	return out, len(out) - base
}

// batchSweep runs DequeueBatchAppend's three phases, appending to out until
// len(out) reaches the absolute target n. The sticky shard goes first while
// it has budget and its root reads nonempty, and each call it serves spends
// one; a call that another shard serves makes that shard sticky with a full
// budget. So the sticky shard adds no visit beyond the k+3 sub-operations
// and k+5 root reads of the sampled path.
func (h *Handle[T]) batchSweep(n int, out []T) []T {
	k := len(h.q.shards)
	if h.budget > 0 {
		h.chargeRoots(1, 0)
		if h.q.size(h.sticky) > 0 {
			h.budget--
			if out = h.take(h.sticky, n, out); len(out) >= n {
				return out
			}
		}
	}
	// Guided attempts: two random choices, read at the shards' roots.
	for attempt := 0; attempt < 2 && len(out) < n; attempt++ {
		if j := h.pickShard(); j >= 0 {
			had := len(out)
			if out = h.take(j, n, out); len(out) > had {
				h.sticky, h.budget = j, stickyPulls
			}
		}
	}
	// Certification sweep: every shard, starting at home so concurrent
	// dequeuers spread out. An empty shard answers at its root read and a
	// sub-dequeue is wait-free, so the whole operation is wait-free.
	for i := 0; i < k && len(out) < n; i++ {
		j := h.home + i
		if j >= k {
			j -= k
		}
		had := len(out)
		if out = h.batchFrom(j, n, out); len(out) > had {
			h.sticky, h.budget = j, stickyPulls
		}
	}
	return out
}

// chargeRoots charges m root reads, two loads each, to the counter as one
// sub-operation that answers nulls null dequeues, so routing reads count
// toward the call's steps.
func (h *Handle[T]) chargeRoots(m, nulls int64) {
	c := h.counter
	c.BeginOp()
	c.Read(2 * m)
	c.EndBatch(0, 0, nulls)
}

// batchFrom pulls what out still lacks from shard j. It reads the shard's
// root first and issues the multi-op sub-dequeue only if the root holds
// elements: a root block of size 0 IS the shard's null answer, so an empty
// shard costs a load — no block appended, propagated, allocated or (on
// core) retained. The block read is the newest
// installed one (bounded: the root's Max; core: blocks[head-1], and every
// refresh ends in advance(v, hd) before propagate returns), hence at least
// as new as the block of every operation that has returned: the null
// linearizes right after it — after every operation that returned before
// the read, before every one that starts later (TestLenCoversCompletedOps;
// cross-shard order is relaxed anyway). It is charged as one null
// sub-operation of two reads to the counter the sub-dequeue would have used.
func (h *Handle[T]) batchFrom(j, n int, out []T) []T {
	if h.q.size(j) > 0 {
		return h.take(j, n, out)
	}
	h.chargeRoots(1, int64(n-len(out)))
	return out
}

// take pulls what out still lacks from shard j with one multi-op
// sub-dequeue; the caller has read the shard's root nonempty.
func (h *Handle[T]) take(j, n int, out []T) []T {
	out, _ = h.sub[j].DequeueBatchAppend(out, n-len(out))
	return out
}

// pickChoices is d, the number of shards a guided attempt samples before
// committing to the fullest.
const pickChoices = 2

// stickyPulls is the budget of calls a sticky shard may serve in a row
// before the handle samples the fabric again, so a shard that never
// empties cannot keep a consumer from the others. Consecutive pulls from
// one shard reuse the root blocks and store paths the last one touched.
const stickyPulls = 64

// pickShard samples pickChoices shards uniformly and returns the one whose
// root reads largest, or -1 if that root reads empty. Its root reads are
// charged to the counter.
func (h *Handle[T]) pickShard() int {
	h.chargeRoots(pickChoices, 0)
	k := uint64(len(h.q.shards))
	best, bestSize := -1, int64(0)
	for i := 0; i < pickChoices; i++ {
		j := int(xorshift(&h.rng) % k)
		if sz := h.q.size(j); sz > bestSize {
			best, bestSize = j, sz
		}
	}
	return best
}

// xorshift advances a xorshift64* PRNG state; each handle owns one state, so
// no synchronization is needed.
func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x * 0x2545F4914F6CDD1D
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
// can lease it. The handle must not be used afterwards (other methods panic);
// Release itself is idempotent — a second Release is a defined no-op, so
// teardown paths may release defensively.
func (h *Handle[T]) Release() {
	if h.released {
		return
	}
	h.released = true
	h.sub = nil // the slot's sub-handles pass to its next lease
	h.q.reg.release(h.slot)
}

// check panics on use-after-Release — always a caller bug, and one that
// would otherwise silently corrupt another goroutine's lease.
func (h *Handle[T]) check() {
	if h.released {
		panic("shard: handle used after Release")
	}
}
