package shard

import (
	"math/bits"
	"sync/atomic"
)

// bitmap is a lock-free nonempty-shard index: bit j is set while shard j is
// believed to hold elements. Enqueuers set the bit after their enqueue
// completes; a dequeuer that observes a shard empty clears the bit and then
// re-sets it if the shard's root says elements raced in. Because an enqueue
// propagates to the root before its bitmap set, the clear-then-recheck
// never strands a completed enqueue with its bit clear — either the
// dequeuer's root read sees the element, or the enqueuer's own set lands
// after the clear.
//
// The bitmap is advisory: dequeue correctness never depends on it, because
// Dequeue falls back to a full shard sweep before reporting empty.
//
// Each 64-shard word is padded to its own pair of cache lines: the words
// are the most write-shared atomics in the fabric (every enqueue may set,
// every dequeue may clear), and with k <= a few hundred shards the padding
// costs a few KB to remove all cross-word false sharing.
type bitmap struct {
	words []padUint64
	n     int
}

// padUint64 is an atomic word alone on two cache lines.
type padUint64 struct {
	v atomic.Uint64
	_ [120]byte
}

// padInt64 is the int64 counterpart (used by the registry free list and the
// home directory).
type padInt64 struct {
	v atomic.Int64
	_ [120]byte
}

func (b *bitmap) init(n int) {
	b.n = n
	b.words = make([]padUint64, (n+63)/64)
}

// set marks shard j nonempty.
func (b *bitmap) set(j int) {
	w := &b.words[j>>6].v
	mask := uint64(1) << (uint(j) & 63)
	if w.Load()&mask == 0 { // skip the RMW when already set (common case)
		w.Or(mask)
	}
}

// clear marks shard j empty, skipping the RMW when already clear (every
// poll of an empty fabric); a skipped clear can only leave a bit set.
func (b *bitmap) clear(j int) {
	w := &b.words[j>>6].v
	mask := uint64(1) << (uint(j) & 63)
	if w.Load()&mask != 0 {
		w.And(^mask)
	}
}

// isSet reports whether shard j is marked nonempty.
func (b *bitmap) isSet(j int) bool {
	return b.words[j>>6].v.Load()&(uint64(1)<<(uint(j)&63)) != 0
}

// randomSet returns a uniformly-started cyclic probe: the first set bit at
// or after a random position, or -1 if no bit was observed set. One pass
// over the words, O(k/64) loads.
func (b *bitmap) randomSet(rng *uint64) int {
	if b.n == 0 {
		return -1
	}
	start := int(xorshift(rng) % uint64(b.n))
	sw, sb := start>>6, uint(start)&63
	nw := len(b.words)
	for i := 0; i < nw; i++ {
		wi := (sw + i) % nw
		w := b.words[wi].v.Load()
		if i == 0 {
			w &= ^uint64(0) << sb // ignore bits before the start position
		}
		for w != 0 {
			j := wi<<6 + bits.TrailingZeros64(w)
			if j < b.n {
				return j
			}
			w &= w - 1
		}
	}
	// Wrap: bits before the start position in the start word.
	w := b.words[sw].v.Load() & ((uint64(1) << sb) - 1)
	if w != 0 {
		j := sw<<6 + bits.TrailingZeros64(w)
		if j < b.n {
			return j
		}
	}
	return -1
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

// rngSeed derives a nonzero, well-mixed PRNG seed from a slot number
// (splitmix64 finalizer).
func rngSeed(slot int) uint64 {
	z := uint64(slot) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
