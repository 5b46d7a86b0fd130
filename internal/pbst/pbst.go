// Package pbst is the persistent block store of the bounded-space queue
// (paper Section 6, Appendix B): the structure each ordering-tree node keeps
// its blocks in.
//
// The paper uses a red-black tree made persistent with Driscoll et al.'s
// node copying; any persistent structure with logarithmic insert, split and
// search preserves the construction and its complexity accounting. The
// queue's access pattern is far narrower than a general ordered map's: keys
// are dense consecutive block indices, the only insert is at max+1, the only
// delete is a prefix, and lookups are by index. Seq is specialised to
// exactly that: a radix trie of full 16-slot chunks addressed by the key's
// digits, plus the chunk containing the largest key (the tail). A version is
// three words: its largest key and value, and a pointer to a base holding
// the smallest key and value, the trie and the tail. The largest value lives
// only in the version. The versions whose largest keys share one tail chunk
// share one base, so appending allocates one 24-byte version, writes the
// previous largest value into its tail slot, and only on the key that starts
// a chunk also makes a new base, tail chunk and trie path. A trie branch is
// 16 untyped child pointers (128 bytes): its level says whether they are
// branches or chunks, so copying a path moves one 128-byte branch per level.
// Dropping a prefix copies the base, the chunk at the new minimum and the
// path to it and clears what lies left of it, so a dropped value is
// unreachable from the new version and the Go GC can reclaim it.
//
// Versions are persistent: a reader holding an old version sees a
// consistent snapshot, and two versions derived from one parent are
// invisible to each other. Chunk slots are the one piece of memory versions
// share and write: each slot is written once and is shared by every version
// whose range covers it. A version only reads slots below its own largest
// key, and each of those was written before the version was created. The
// contract that keeps this consistent is on Seq. A nil *Seq is the empty
// sequence.
package pbst

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

const (
	chunkBits = 4
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// Seq is a persistent sequence of values *E at the consecutive keys lo..hi.
// Keys are non-negative.
//
// Extending a version (Append) writes its largest value into a tail slot
// that every version extended from it shares. That is safe under one
// contract, which the queue's Refresh meets by construction:
//   - every builder on one version writes the same value into the same slot
//     (its largest value, already part of that version);
//   - of two versions appended to one parent, at most one is ever extended:
//     the CAS winner. A CAS loser is discarded. Extending a loser after its
//     sibling was extended finds the sibling's value in their shared slot
//     and panics. (Siblings whose key starts a chunk share no slot: each
//     has a fresh tail.)
//
// Shared memory therefore only ever receives the receiver's already
// published largest value; the value an Append adds lives in the new version
// alone until that version is extended in turn.
type Seq[E any] struct {
	hi   int64
	last *E // the value at hi, so that Max is O(1)
	*base[E]
}

// base is the part of a version that the versions extended from it share
// until their largest key starts a new chunk.
type base[E any] struct {
	lo    int64
	first *E // the value at lo, so that Min is O(1)

	// root holds the chunks left of the tail, i.e. the keys
	// lo .. hi&^chunkMask-1, and is nil when there are none. It is the
	// subtree whose keys share every digit above shift+chunkBits with lo,
	// not necessarily the one anchored at key 0: DropBelow lowers it as the
	// live range narrows, so depth follows the live range, not the largest
	// key ever appended.
	root  *branch[E]
	shift uint

	// tail is the chunk containing the hi of every version sharing this
	// base: the value of key k < hi sits in slot k&chunkMask, and slots
	// below lo are nil. The slots from hi&chunkMask up are written by the
	// versions extended from that one.
	tail *chunk[E]
}

// chunk holds the values of 16 consecutive keys. Each slot is written once.
type chunk[E any] [chunkLen]atomic.Pointer[E]

// branch is a trie node. At the bottom level (shift == chunkBits) its
// children are chunks of values, above it further branches. Every walk knows
// its level, so one untyped array holds either kind and the level picks the
// accessor; a path copy moves 16 words.
type branch[E any] struct {
	kids [chunkLen]unsafe.Pointer
}

// sub returns child i of a branch above the bottom level.
func (b *branch[E]) sub(i int64) *branch[E] { return (*branch[E])(b.kids[i]) }

// leaf returns child i of a branch at the bottom level.
func (b *branch[E]) leaf(i int64) *chunk[E] { return (*chunk[E])(b.kids[i]) }

// Size returns the number of entries.
func (s *Seq[E]) Size() int64 {
	if s == nil {
		return 0
	}
	return s.hi - s.lo + 1
}

// Append returns the sequence extended by val at key, which must be the
// successor of the largest key (any non-negative key if s is empty);
// anything else is a caller bug and panics, as does extending a CAS loser
// (see Seq). The values s reads are unchanged.
func (s *Seq[E]) Append(key int64, val *E) *Seq[E] {
	if s == nil {
		if key < 0 {
			panic(fmt.Sprintf("pbst: negative key %d", key))
		}
		return &Seq[E]{hi: key, last: val, base: &base[E]{lo: key, first: val, tail: new(chunk[E])}}
	}
	if key != s.hi+1 {
		panic(fmt.Sprintf("pbst: Append key %d, want %d", key, s.hi+1))
	}
	if slot := &s.tail[s.hi&chunkMask]; !slot.CompareAndSwap(nil, s.last) && slot.Load() != s.last {
		panic(fmt.Sprintf("pbst: Append at key %d extends a version whose sibling was extended first", key))
	}
	if key&chunkMask != 0 {
		return &Seq[E]{hi: key, last: val, base: s.base}
	}
	root, shift := s.withTailPushed()
	return &Seq[E]{hi: key, last: val, base: &base[E]{lo: s.lo, first: s.first, root: root, shift: shift, tail: new(chunk[E])}}
}

// withTailPushed returns s's trie with its (now full) tail chunk added as a
// leaf, raising the root until the chunk fits under it.
func (s *Seq[E]) withTailPushed() (*branch[E], uint) {
	key := s.hi &^ chunkMask
	root, shift := s.root, s.shift
	if root == nil {
		return root.withLeaf(chunkBits, key, s.tail), chunkBits
	}
	for key>>(shift+chunkBits) != s.lo>>(shift+chunkBits) {
		shift += chunkBits
		up := new(branch[E])
		up.kids[(s.lo>>shift)&chunkMask] = unsafe.Pointer(root)
		root = up
	}
	return root.withLeaf(shift, key, s.tail), shift
}

// withLeaf returns a copy of b (a fresh branch if b is nil) at the given
// shift with c installed for key, copying only the path to it.
func (b *branch[E]) withLeaf(shift uint, key int64, c *chunk[E]) *branch[E] {
	var n branch[E]
	if b != nil {
		n = *b
	}
	i := (key >> shift) & chunkMask
	if shift == chunkBits {
		n.kids[i] = unsafe.Pointer(c)
	} else {
		n.kids[i] = unsafe.Pointer(n.sub(i).withLeaf(shift-chunkBits, key, c))
	}
	return &n
}

// DropBelow returns the sequence without the entries whose key is less than
// bound: the paper's Split(T, s) used by garbage collection. Nothing
// dropped stays reachable from the result.
func (s *Seq[E]) DropBelow(bound int64) *Seq[E] {
	if s == nil || bound <= s.lo {
		return s
	}
	if bound > s.hi {
		return nil
	}
	n := *s.base
	n.lo = bound
	n.first = s.at(bound)
	tailStart := s.hi &^ chunkMask
	if bound >= tailStart {
		n.root, n.shift = nil, 0
		if j := bound & chunkMask; j != 0 {
			n.tail = s.tail.slice(j, s.hi&chunkMask)
		}
	} else {
		for n.shift > chunkBits && bound>>n.shift == (tailStart-1)>>n.shift {
			n.root = n.root.sub((bound >> n.shift) & chunkMask)
			n.shift -= chunkBits
		}
		n.root = n.root.withoutBelow(n.shift, bound)
	}
	return &Seq[E]{hi: s.hi, last: s.last, base: &n}
}

// withoutBelow returns a copy of b at the given shift with everything left
// of bound cleared, copying only the path to bound.
func (b *branch[E]) withoutBelow(shift uint, bound int64) *branch[E] {
	n := *b
	i := (bound >> shift) & chunkMask
	clear(n.kids[:i])
	if shift > chunkBits {
		n.kids[i] = unsafe.Pointer(n.sub(i).withoutBelow(shift-chunkBits, bound))
	} else if j := bound & chunkMask; j != 0 {
		n.kids[i] = unsafe.Pointer(n.leaf(i).slice(j, chunkLen))
	}
	return &n
}

// slice returns a fresh chunk holding c's slots from..to-1 and nil elsewhere.
func (c *chunk[E]) slice(from, to int64) *chunk[E] {
	n := new(chunk[E])
	for k := from; k < to; k++ {
		n[k].Store(c[k].Load())
	}
	return n
}

// Get returns the value at key.
func (s *Seq[E]) Get(key int64) (*E, bool) {
	if s == nil || key < s.lo || key > s.hi {
		return nil, false
	}
	return s.at(key), true
}

// at returns the value at key, which must lie in lo..hi.
func (s *Seq[E]) at(key int64) *E {
	if key == s.hi {
		return s.last
	}
	if key >= s.hi&^chunkMask {
		return s.tail[key&chunkMask].Load()
	}
	b := s.root
	for shift := s.shift; shift > chunkBits; shift -= chunkBits {
		b = b.sub((key >> shift) & chunkMask)
	}
	return b.leaf((key >> chunkBits) & chunkMask)[key&chunkMask].Load()
}

// Min returns the entry with the smallest key in O(1).
func (s *Seq[E]) Min() (key int64, val *E, ok bool) {
	if s == nil {
		return 0, nil, false
	}
	return s.lo, s.first, true
}

// Max returns the entry with the largest key in O(1).
func (s *Seq[E]) Max() (key int64, val *E, ok bool) {
	if s == nil {
		return 0, nil, false
	}
	return s.hi, s.last, true
}

// FindFirst returns the entry with the smallest key whose value satisfies
// pred, which must be monotone in key order (false on a prefix, true on the
// rest) — the shape of all searches the queue performs (index, sumenq,
// endleft and endright are non-decreasing in a node's block sequence,
// Invariant 7 and Lemma 4'). It starts at hint, clamped to lo..hi, gallops
// toward the answer with doubling strides and binary-searches the last
// stride, so it evaluates pred O(log d) times, d being the distance from the
// hint to the answer. Every hint gives the same answer.
func (s *Seq[E]) FindFirst(hint int64, pred func(val *E) bool) (key int64, val *E, ok bool) {
	if s == nil {
		return 0, nil, false
	}
	hint = min(max(hint, s.lo), s.hi)
	// The answer lies in lo..hi, and pred holds at hi; hi == s.hi+1 stands
	// for "pred held nowhere".
	var lo, hi int64
	if v := s.at(hint); pred(v) {
		lo, hi, val = s.lo, hint, v
		for step := int64(1); hint-step >= s.lo; step *= 2 {
			v := s.at(hint - step)
			if !pred(v) {
				lo = hint - step + 1
				break
			}
			hi, val = hint-step, v
		}
	} else {
		lo, hi = hint+1, s.hi+1
		for step := int64(1); hint+step <= s.hi; step *= 2 {
			if v := s.at(hint + step); pred(v) {
				hi, val = hint+step, v
				break
			}
			lo = hint + step + 1
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if v := s.at(mid); pred(v) {
			hi, val = mid, v
		} else {
			lo = mid + 1
		}
	}
	if lo > s.hi {
		return 0, nil, false
	}
	return lo, val, true
}

// Ascend visits entries in increasing key order until fn returns false.
func (s *Seq[E]) Ascend(fn func(key int64, val *E) bool) {
	for k := int64(0); k < s.Size(); k++ {
		if !fn(s.lo+k, s.at(s.lo+k)) {
			return
		}
	}
}
