package shard

import "sync/atomic"

// registry is the dynamic handle registry: a lock-free Treiber-style free
// list over the fixed slot array [0, n). Acquire pops a free slot index and
// Release pushes one back, so arbitrary goroutines can lease and recycle the
// paper's statically numbered handles.
//
// The list head packs (tag, slot+1) into one uint64; the tag is bumped on
// every successful CAS so a slot that is popped, recycled and pushed again
// cannot make a stale head value win its CAS (the ABA problem). next[i]
// holds the slot index below i on the free list, or -1 at the bottom.
//
// The registry also tallies lease churn (acquires, releases, failed
// acquires) so service layers that lease a handle per connection can report
// registry pressure. The tallies are monotonic atomics off the CAS loop's
// retry path: they count completed operations, not attempts.
type registry struct {
	head atomic.Uint64
	// next entries are cache-line padded: under handle churn (a lease per
	// connection) adjacent slots' free-list links are written by unrelated
	// goroutines back to back.
	next []padInt64

	acquires atomic.Int64
	releases atomic.Int64
	failures atomic.Int64
}

// padInt64 is an atomic int64 alone on two cache lines.
type padInt64 struct {
	v atomic.Int64
	_ [120]byte
}

const regTagShift = 32

func regPack(tag uint64, slot int64) uint64 {
	return tag<<regTagShift | uint64(uint32(slot+1))
}

func regSlot(head uint64) int64 {
	return int64(uint32(head)) - 1
}

// init makes every slot in [0, n) available, with slot 0 on top so the first
// Acquires get the lowest indices.
func (r *registry) init(n int) {
	r.next = make([]padInt64, n)
	if n == 0 {
		r.head.Store(regPack(0, -1)) // empty sentinel, not slot 0
		return
	}
	for i := 0; i < n; i++ {
		r.next[i].v.Store(int64(i + 1))
	}
	r.next[n-1].v.Store(-1)
	r.head.Store(regPack(0, 0))
}

// acquire pops a free slot. ok is false when every slot is leased.
func (r *registry) acquire() (slot int, ok bool) {
	for {
		h := r.head.Load()
		s := regSlot(h)
		if s < 0 {
			r.failures.Add(1)
			return 0, false
		}
		// next[s] is stable while s is on the free list: only the releaser
		// wrote it, and nobody rewrites it until s is popped and re-pushed —
		// which the tag CAS below detects.
		nxt := r.next[s].v.Load()
		if r.head.CompareAndSwap(h, regPack(h>>regTagShift+1, nxt)) {
			r.acquires.Add(1)
			return int(s), true
		}
	}
}

// release pushes slot back onto the free list. The caller must own the lease
// (acquired and not yet released); releasing a free slot corrupts the list.
func (r *registry) release(slot int) {
	for {
		h := r.head.Load()
		r.next[slot].v.Store(regSlot(h))
		if r.head.CompareAndSwap(h, regPack(h>>regTagShift+1, int64(slot))) {
			r.releases.Add(1)
			return
		}
	}
}

// free counts currently unleased slots. It is a diagnostic: the count is
// only exact while no Acquire/Release is in flight.
func (r *registry) free() int {
	n := 0
	for s := regSlot(r.head.Load()); s >= 0; s = r.next[s].v.Load() {
		n++
		if n > len(r.next) { // torn read during concurrent mutation
			break
		}
	}
	return n
}
