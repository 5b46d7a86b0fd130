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
// digits, with the partial last chunk held inline in the version header.
// Appending copies one header and touches the trie once per 16 appends;
// dropping a prefix copies the path to the new minimum and clears what lies
// left of it, so a dropped value is unreachable from the new version and
// the Go GC can reclaim it.
//
// All operations are pure: they return a new *Seq and never modify memory
// reachable from the receiver, so a reader holding an old version sees a
// consistent snapshot and two versions derived from one parent are
// invisible to each other. A nil *Seq is the empty sequence.
package pbst

import "fmt"

const (
	chunkBits = 4
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// Seq is an immutable sequence of values at the consecutive keys lo..hi.
// Keys are non-negative.
type Seq[V any] struct {
	lo, hi int64
	first  V // the value at lo, so that Min is O(1) like Max

	// root holds the chunks left of the tail, i.e. the keys
	// lo .. hi&^chunkMask-1, and is nil when there are none. It is the
	// subtree whose keys share every digit above shift+chunkBits with lo,
	// not necessarily the one anchored at key 0: DropBelow lowers it as the
	// live range narrows, so depth follows the live range, not the largest
	// key ever appended.
	root  *branch[V]
	shift uint

	// tail is the chunk containing hi; the value of key k sits in slot
	// k&chunkMask, and slots outside lo..hi are zero.
	tail [chunkLen]V
}

// branch is a trie node. At the bottom level (shift == chunkBits) its
// children are chunks of values, above it further branches; the other array
// stays nil.
type branch[V any] struct {
	sub  [chunkLen]*branch[V]
	leaf [chunkLen]*[chunkLen]V
}

// Size returns the number of entries.
func (s *Seq[V]) Size() int64 {
	if s == nil {
		return 0
	}
	return s.hi - s.lo + 1
}

// Append returns the sequence extended by val at key, which must be the
// successor of the largest key (any non-negative key if s is empty);
// anything else is a caller bug and panics. The receiver is unchanged.
func (s *Seq[V]) Append(key int64, val V) *Seq[V] {
	if s == nil {
		if key < 0 {
			panic(fmt.Sprintf("pbst: negative key %d", key))
		}
		n := &Seq[V]{lo: key, hi: key, first: val}
		n.tail[key&chunkMask] = val
		return n
	}
	if key != s.hi+1 {
		panic(fmt.Sprintf("pbst: Append key %d, want %d", key, s.hi+1))
	}
	n := *s
	n.hi = key
	if key&chunkMask == 0 {
		n.root, n.shift = s.withTailPushed()
		n.tail = [chunkLen]V{}
	}
	n.tail[key&chunkMask] = val
	return &n
}

// withTailPushed returns s's trie with its tail chunk added as a leaf,
// raising the root until the chunk fits under it.
func (s *Seq[V]) withTailPushed() (*branch[V], uint) {
	chunk := s.tail
	key := s.hi &^ chunkMask
	root, shift := s.root, s.shift
	if root == nil {
		return root.withLeaf(chunkBits, key, &chunk), chunkBits
	}
	for key>>(shift+chunkBits) != s.lo>>(shift+chunkBits) {
		shift += chunkBits
		up := new(branch[V])
		up.sub[(s.lo>>shift)&chunkMask] = root
		root = up
	}
	return root.withLeaf(shift, key, &chunk), shift
}

// withLeaf returns a copy of b (a fresh branch if b is nil) at the given
// shift with chunk installed for key, copying only the path to it.
func (b *branch[V]) withLeaf(shift uint, key int64, chunk *[chunkLen]V) *branch[V] {
	var c branch[V]
	if b != nil {
		c = *b
	}
	i := (key >> shift) & chunkMask
	if shift == chunkBits {
		c.leaf[i] = chunk
	} else {
		c.sub[i] = c.sub[i].withLeaf(shift-chunkBits, key, chunk)
	}
	return &c
}

// DropBelow returns the sequence without the entries whose key is less than
// bound: the paper's Split(T, s) used by garbage collection. Nothing
// dropped stays reachable from the result.
func (s *Seq[V]) DropBelow(bound int64) *Seq[V] {
	if s == nil || bound <= s.lo {
		return s
	}
	if bound > s.hi {
		return nil
	}
	n := *s
	n.lo = bound
	n.first, _ = s.Get(bound)
	tailStart := s.hi &^ chunkMask
	if bound >= tailStart {
		n.root, n.shift = nil, 0
		clear(n.tail[:bound&chunkMask])
		return &n
	}
	for n.shift > chunkBits && bound>>n.shift == (tailStart-1)>>n.shift {
		n.root = n.root.sub[(bound>>n.shift)&chunkMask]
		n.shift -= chunkBits
	}
	n.root = n.root.withoutBelow(n.shift, bound)
	return &n
}

// withoutBelow returns a copy of b at the given shift with everything left
// of bound cleared, copying only the path to bound.
func (b *branch[V]) withoutBelow(shift uint, bound int64) *branch[V] {
	c := *b
	i := (bound >> shift) & chunkMask
	if shift > chunkBits {
		clear(c.sub[:i])
		c.sub[i] = c.sub[i].withoutBelow(shift-chunkBits, bound)
		return &c
	}
	clear(c.leaf[:i])
	if j := bound & chunkMask; j != 0 {
		chunk := *c.leaf[i]
		clear(chunk[:j])
		c.leaf[i] = &chunk
	}
	return &c
}

// Get returns the value at key.
func (s *Seq[V]) Get(key int64) (V, bool) {
	if s == nil || key < s.lo || key > s.hi {
		var zero V
		return zero, false
	}
	if key >= s.hi&^chunkMask {
		return s.tail[key&chunkMask], true
	}
	b := s.root
	for shift := s.shift; shift > chunkBits; shift -= chunkBits {
		b = b.sub[(key>>shift)&chunkMask]
	}
	return b.leaf[(key>>chunkBits)&chunkMask][key&chunkMask], true
}

// Min returns the entry with the smallest key in O(1).
func (s *Seq[V]) Min() (key int64, val V, ok bool) {
	if s == nil {
		return 0, val, false
	}
	return s.lo, s.first, true
}

// Max returns the entry with the largest key in O(1).
func (s *Seq[V]) Max() (key int64, val V, ok bool) {
	if s == nil {
		return 0, val, false
	}
	return s.hi, s.tail[s.hi&chunkMask], true
}

// FindFirst returns the entry with the smallest key whose value satisfies
// pred, which must be monotone in key order (false on a prefix, true on the
// rest) — the shape of all searches the queue performs (index, sumenq,
// endleft and endright are non-decreasing in a node's block sequence,
// Invariant 7 and Lemma 4'). It is a binary search over the keys.
func (s *Seq[V]) FindFirst(pred func(val V) bool) (key int64, val V, ok bool) {
	if s == nil {
		return 0, val, false
	}
	lo, hi := s.lo, s.hi+1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if v, _ := s.Get(mid); pred(v) {
			hi, val = mid, v
		} else {
			lo = mid + 1
		}
	}
	if lo > s.hi {
		return 0, val, false // pred held nowhere, so val is still zero
	}
	return lo, val, true
}

// Ascend visits entries in increasing key order until fn returns false.
func (s *Seq[V]) Ascend(fn func(key int64, val V) bool) {
	for k := int64(0); k < s.Size(); k++ {
		if v, _ := s.Get(s.lo + k); !fn(s.lo+k, v) {
			return
		}
	}
}
