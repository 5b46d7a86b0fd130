package bounded

// The block store: the blocks of one ordering-tree node at their dense
// indices 0, 1, 2, ..., the paper's infinite blocks array (core's infarray)
// with a prefix that GC phases drop. It is not persistent, where the
// paper's red-black tree is: a block is installed by a CAS on its own slot
// and a drop unlinks the prefix in place. A reader that loaded a block
// before the drop keeps valid memory, as the Go collector frees nothing
// still referenced, and blocks never change once installed, so the reader
// only sees more than the store now holds, never something else.
//
// It is a radix trie of fan-slot chunks under fan-way branches, anchored at
// index 0, whose root rises one level when an install needs it, plus a
// tail: a shortcut to the chunk of the newest index an install has walked
// to, which only moves right. A load or install inside the tail chunk makes
// two loads, the tail and the slot; any other index walks the trie, 3 +
// ⌊log₆₄ n⌋ loads for a node whose newest index is n (DESIGN.md, arguments
// (d) and (e)). A slot or trie pointer goes from nil to a value once, by
// CAS; a leaf's owner publishes its blocks with a plain store. A drop moves
// the tail to its split's chunk before it writes the shared tombstone over
// what it unlinks, so no access through the tail reaches a chunk the drop
// unlinked, nothing is set back to nil and a stale installer cannot win a
// slot below the drop point (TestStaleInstallerLoses). Wholly dead chunks
// become unreachable and the partly dead chunk's dead slots hold the
// tombstone, so a drop pins no dead block.

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/metrics"
)

const (
	fanBits = 6
	fan     = 1 << fanBits
	fanMask = fan - 1
)

// radix is one trie node. At level 0, a chunk, its entries are the blocks
// at fan consecutive indices; above it they are the trie nodes one level
// down. Every walk knows its level, so one untyped array serves both.
type radix [fan]unsafe.Pointer

// chunk is a level-0 trie node, the blocks at indices base..base+fan-1.
// It carries its base so that the tail can point at it directly: a walk
// that makes a chunk knows its base, and moving the tail allocates
// nothing. slots comes first, so a trie entry that points at a chunk
// points at its slots too.
type chunk struct {
	slots radix
	base  int64
}

// trieTop is a store's trie root with its level: the root splits the
// indices below fan<<shift by their bits shift..shift+fanBits-1. The root
// is inline, so a walk starts one load closer to the slot. While shift is
// 0 the root is the chunk at base 0; above that only its slots are used.
type trieTop struct {
	shift uint
	root  chunk
}

// tomb is the tombstone a drop writes over what it unlinks. It is compared
// with, never dereferenced.
var tomb = unsafe.Pointer(new(radix))

// store is one node's blocks. Every method takes the counter of the handle
// it runs for and counts each shared load, store and CAS it makes.
type store struct {
	top atomic.Pointer[trieTop]

	// tail is the chunk of the newest index an install has walked to, or
	// of a drop's split if that is newer. Its base only grows.
	tail atomic.Pointer[chunk]

	// lo is a lower bound on the oldest live index: every index below it
	// was unlinked. A drop raises it once done; a drop that loses that CAS
	// leaves it lower than its true value, which the next drop makes good.
	lo atomic.Int64
}

// init installs b at index 0 of a fresh store.
func (s *store) init(b *block) {
	t := new(trieTop)
	t.root.slots[0] = unsafe.Pointer(b)
	s.top.Store(t)
	s.tail.Store(&t.root)
}

// load returns the entry at index i: its block, nil if none was installed
// there yet, or tomb if a drop unlinked it. Negative indices read as tomb.
func (s *store) load(i int64, c *metrics.Counter) unsafe.Pointer {
	if i < 0 {
		return tomb
	}
	if tl := s.tail.Load(); uint64(i-tl.base) < fan {
		c.Read(2)
		return atomic.LoadPointer(&tl.slots[i&fanMask])
	}
	t := s.top.Load()
	if i>>t.shift >= fan {
		c.Read(2)
		return nil
	}
	r := &t.root.slots
	for sh, n := t.shift, int64(3); ; sh, n = sh-fanBits, n+1 {
		p := atomic.LoadPointer(&r[(i>>sh)&fanMask])
		if sh == 0 || p == nil || p == tomb {
			c.Read(n)
			return p
		}
		r = (*radix)(p)
	}
}

// install publishes b at index b.index, through the tail if b's chunk is
// the tail's and otherwise by a walk that makes the trie path as needed, by
// CAS on the slot or, when cas is false (the owner of a leaf), by a plain
// store. After a walk it moves the tail to b's chunk if that is newer. It
// reports false if the slot was taken or a drop had unlinked it.
func (s *store) install(b *block, cas bool, c *metrics.Counter) bool {
	i := b.index
	tl := s.tail.Load()
	c.Read(1)
	ch := tl
	if uint64(i-tl.base) >= fan {
		if ch = s.walk(i, c); ch == nil {
			return false
		}
	}
	slot := &ch.slots[i&fanMask]
	ok := true
	if cas {
		ok = atomic.CompareAndSwapPointer(slot, nil, unsafe.Pointer(b))
		c.CAS(ok)
	} else {
		atomic.StorePointer(slot, unsafe.Pointer(b))
		c.Write()
	}
	if ch != tl {
		s.moveTail(tl, ch, c)
	}
	return ok
}

// walk returns the chunk holding index i, making the trie path to it as
// needed, or nil if a drop had unlinked it.
func (s *store) walk(i int64, c *metrics.Counter) *chunk {
	t := s.top.Load()
	c.Read(1)
	for i>>t.shift >= fan {
		t = s.raise(t, c)
	}
	r := &t.root.slots
	for sh := t.shift; sh > 0; sh -= fanBits {
		slot := &r[(i>>sh)&fanMask]
		p := atomic.LoadPointer(slot)
		c.Read(1)
		if p == nil {
			var fresh unsafe.Pointer
			if sh == fanBits {
				fresh = unsafe.Pointer(&chunk{base: i &^ fanMask})
			} else {
				fresh = unsafe.Pointer(new(radix))
			}
			ok := atomic.CompareAndSwapPointer(slot, nil, fresh)
			c.CAS(ok)
			if p = fresh; !ok {
				p = atomic.LoadPointer(slot)
				c.Read(1)
			}
		}
		if p == tomb {
			return nil
		}
		r = (*radix)(p)
	}
	return (*chunk)(unsafe.Pointer(r))
}

// moveTail moves the tail from cur, the value last read, to the chunk to,
// unless the tail is already there or right of it. Every CAS that fails
// saw the tail move right, so it retries at most once per chunk between
// cur and to.
func (s *store) moveTail(cur, to *chunk, c *metrics.Counter) {
	for cur.base < to.base {
		ok := s.tail.CompareAndSwap(cur, to)
		c.CAS(ok)
		if ok {
			return
		}
		cur = s.tail.Load()
		c.Read(1)
	}
}

// raise returns the trie's top one level above t: a fresh root whose first
// entry is t's root, or whatever top another raise installed first. Tops
// only rise, so an install calls raise at most once per level.
func (s *store) raise(t *trieTop, c *metrics.Counter) *trieTop {
	up := &trieTop{shift: t.shift + fanBits}
	up.root.slots[0] = unsafe.Pointer(&t.root)
	ok := s.top.CompareAndSwap(t, up)
	c.CAS(ok)
	if ok {
		return up
	}
	c.Read(1)
	return s.top.Load()
}

// drop unlinks every index below split, which must hold an installed block
// (the paper's Split). It walks split's path from the root, moves the tail
// to split's chunk, and only then writes tomb over each entry left of the
// path back to where the previous drop stopped: whole subtrees above level
// 0, single slots in split's own chunk. A walk that meets a tombstone on
// the path stops there: a concurrent drop past split unlinked the rest and
// has moved the tail past split already. Every index below split is
// installed, so a drop only ever overwrites non-nil entries, and every
// writer writes the same tomb, so concurrent drops need no CAS. A drop's
// work is the entries it unlinks plus one load per level.
func (s *store) drop(split int64, c *metrics.Counter) {
	from := s.lo.Load()
	c.Read(1)
	if split <= from {
		return
	}
	t := s.top.Load()
	c.Read(1)
	var path [64/fanBits + 1]*radix // one trie node per level, from the top
	r, n := &t.root.slots, 0
	for sh := t.shift; ; sh -= fanBits {
		path[n], n = r, n+1
		if sh == 0 {
			tl := s.tail.Load()
			c.Read(1)
			s.moveTail(tl, (*chunk)(unsafe.Pointer(r)), c)
			break
		}
		p := atomic.LoadPointer(&r[(split>>sh)&fanMask])
		c.Read(1)
		if p == tomb {
			break
		}
		r = (*radix)(p)
	}
	for k, sh := 0, t.shift; k < n; k, sh = k+1, sh-fanBits {
		i, d := int64(0), (split>>sh)&fanMask
		if from>>(sh+fanBits) == split>>(sh+fanBits) {
			i = (from >> sh) & fanMask // left of it was unlinked before
		}
		for ; i < d; i++ {
			atomic.StorePointer(&path[k][i], tomb)
			c.Write()
		}
	}
	ok := s.lo.CompareAndSwap(from, split)
	c.CAS(ok)
}

// findFirst returns the lowest-indexed block satisfying pred, which must be
// monotone in index order (false on a prefix, true on the rest), as
// sumEnq, endLeft and endRight are (Invariant 7, Lemma 4'), and the entry
// at the index before it: a block that fails pred, or tomb. A dropped index
// counts as left of the answer, an index with no block yet as right of it.
// It gallops from hint with doubling strides and binary-searches the last
// one, so it probes O(log d) indices, d being hint's distance to the
// answer. A node fills its indices in order, so a search that ends at an
// empty index probes it again: still empty, pred holds at no installed
// block (ok false); filled since, it may answer; dropped since (a GC phase
// overtook the search), the search starts again above it, so, as
// Handle.newest, it retries only while GC phases run past it.
func (s *store) findFirst(hint int64, pred func(*block) bool, c *metrics.Counter) (b *block, prev unsafe.Pointer, ok bool) {
	// right reports whether index i is at or right of the answer, and
	// leaves its entry in b if so, in prev if not. The search's lower bound
	// is always one past its latest probe left of the answer, so prev ends
	// as the answer's predecessor.
	right := func(i int64) bool {
		p := s.load(i, c)
		if p == tomb || p != nil && !pred((*block)(p)) {
			prev = p
			return false
		}
		b = (*block)(p)
		return true
	}
	for {
		var lo, hi int64 // the answer lies in lo..hi, and b is hi's block
		if right(hint) {
			hi = hint
			for step := int64(1); ; step *= 2 {
				if !right(hint - step) {
					lo = hint - step + 1
					break
				}
				hi = hint - step
			}
		} else {
			lo = hint + 1
			for step := int64(1); ; step *= 2 {
				if right(hint + step) {
					hi = hint + step
					break
				}
				lo = hint + step + 1
			}
		}
		for lo < hi {
			if mid := lo + (hi-lo)/2; right(mid) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if b != nil || right(hi) {
			return b, prev, b != nil
		}
		hint = hi + 1
	}
}
