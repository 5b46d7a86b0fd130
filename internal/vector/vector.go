// Package vector implements the wait-free vector sketched in Section 7 of
// the paper: a shared append-only sequence with three operations,
//
//	Append(e) - add e to the end of the sequence,
//	Get(i)    - read the i-th element of the sequence,
//	Index(r)  - return the current position of a previously appended element,
//
// all with polylogarithmic step complexity. It is the queue's ordering-tree
// machinery specialized to enqueues: blocks carry only the enqueue prefix
// sum, Get is the queue's GetEnqueue path (task T4), and Index is the
// queue's IndexDequeue path (task T2) adapted to count enqueues.
package vector

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/infarray"
	"repro/internal/metrics"
)

// ErrBadProcs reports an invalid process count passed to New.
var ErrBadProcs = errors.New("vector: process count must be at least 1")

// block is one entry of a node's blocks array: the queue's block type
// without dequeue bookkeeping.
type block[T any] struct {
	sumEnq   int64 // appends in this node's blocks[1..index] (Invariant 7)
	endLeft  int64 // last direct subblock in the left child
	endRight int64 // last direct subblock in the right child
	element  T     // appended value (leaf blocks)
	super    atomic.Int64
}

func (b *block[T]) end(dir int) int64 {
	if dir == dirLeft {
		return b.endLeft
	}
	return b.endRight
}

const (
	dirLeft = iota + 1
	dirRight
)

type node[T any] struct {
	left, right, parent *node[T]
	blocks              *infarray.Array[block[T]]
	head                atomic.Int64
	leafID              int
}

func (n *node[T]) isLeaf() bool { return n.left == nil }
func (n *node[T]) isRoot() bool { return n.parent == nil }

func (n *node[T]) childDir() int {
	if n.parent.left == n {
		return dirLeft
	}
	return dirRight
}

func (n *node[T]) sibling() *node[T] {
	if n.parent.left == n {
		return n.parent.right
	}
	return n.parent.left
}

func newNode[T any]() *node[T] {
	n := &node[T]{blocks: infarray.New[block[T]](), leafID: -1}
	n.blocks.Store(0, &block[T]{})
	n.head.Store(1)
	return n
}

// Vector is a linearizable wait-free append-only sequence for a fixed set of
// processes.
type Vector[T any] struct {
	root    *node[T]
	leaves  []*node[T]
	handles []Handle[T]
	procs   int
}

// Handle is one process's access point; at most one goroutine may use a
// handle at a time.
type Handle[T any] struct {
	vec     *Vector[T]
	leaf    *node[T]
	counter *metrics.Counter
}

// Ref identifies an appended element so its position can be queried later
// with Index.
type Ref struct {
	leafID int
	idx    int64
}

// New creates a vector for up to procs processes.
func New[T any](procs int) (*Vector[T], error) {
	if procs < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadProcs, procs)
	}
	// The queue's tree shape (core, bounded): max(procs, 2) leaves in
	// 1-indexed heap order, node i's children 2i and 2i+1, leaf k at node
	// numLeaves+k, every leaf at depth floor or ceil of log2 numLeaves.
	numLeaves := max(procs, 2)
	nodes := make([]*node[T], 2*numLeaves)
	for i := len(nodes) - 1; i >= 1; i-- {
		n := newNode[T]()
		if i < numLeaves {
			n.left, n.right = nodes[2*i], nodes[2*i+1]
			n.left.parent, n.right.parent = n, n
		} else {
			n.leafID = i - numLeaves
		}
		nodes[i] = n
	}
	v := &Vector[T]{root: nodes[1], leaves: nodes[numLeaves:], procs: procs}
	v.handles = make([]Handle[T], procs)
	for i := 0; i < procs; i++ {
		v.handles[i] = Handle[T]{vec: v, leaf: v.leaves[i]}
	}
	return v, nil
}

// Procs returns the process count the vector was built for.
func (v *Vector[T]) Procs() int { return v.procs }

// Handle returns the handle for process i.
func (v *Vector[T]) Handle(i int) (*Handle[T], error) {
	if i < 0 || i >= v.procs {
		return nil, fmt.Errorf("vector: handle index %d out of range [0,%d)", i, v.procs)
	}
	return &v.handles[i], nil
}

// MustHandle is Handle for statically valid indices.
func (v *Vector[T]) MustHandle(i int) *Handle[T] {
	h, err := v.Handle(i)
	if err != nil {
		panic(err)
	}
	return h
}

// Len returns the number of elements that have been appended and propagated:
// every Append that returned is counted.
func (v *Vector[T]) Len() int64 {
	h := v.root.head.Load()
	return v.root.blocks.Get(h - 1).sumEnq
}

// SetCounter attaches a step counter to the handle (nil disables).
func (h *Handle[T]) SetCounter(c *metrics.Counter) { h.counter = c }

// Append adds e to the end of the sequence and returns a Ref for later
// Index queries. O(log p) steps.
func (h *Handle[T]) Append(e T) Ref {
	h.counter.BeginOp()
	leaf := h.leaf
	hd := h.readHead(leaf)
	prev := h.readBlock(leaf, hd-1)
	b := &block[T]{element: e, sumEnq: prev.sumEnq + 1}
	h.counter.Write()
	leaf.blocks.Store(hd, b)
	h.advance(leaf, hd)
	h.propagate(leaf.parent)
	h.counter.EndOp(metrics.OpEnqueue)
	return Ref{leafID: leaf.leafID, idx: hd}
}

// Get returns the i-th element of the sequence (0-based). ok is false if
// fewer than i+1 elements have been appended.
func (h *Handle[T]) Get(i int64) (T, bool) {
	h.counter.BeginOp()
	defer h.counter.EndOp(metrics.OpDequeue)
	var zero T
	if i < 0 {
		return zero, false
	}
	rank := i + 1
	root := h.vec.root
	hd := h.readHead(root)
	lastIdx := hd - 1
	if h.readBlock(root, lastIdx).sumEnq < rank {
		// Re-check one slot further: a block may be installed at head
		// before head advances.
		if nb := root.blocks.Get(hd); nb != nil && nb.sumEnq >= rank {
			h.counter.Read(1)
			lastIdx = hd
		} else {
			return zero, false
		}
	}
	// Binary search the root for the block containing the rank-th append.
	lo, hi := int64(0), lastIdx
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if h.readBlock(root, mid).sumEnq >= rank {
			hi = mid
		} else {
			lo = mid
		}
	}
	inner := rank - h.readBlock(root, hi-1).sumEnq
	return h.getAppend(root, hi, inner), true
}

// Index returns the current 0-based position in the sequence of the element
// appended as r. O(log p) steps.
func (h *Handle[T]) Index(r Ref) (int64, error) {
	if r.leafID < 0 || r.leafID >= len(h.vec.leaves) || r.idx < 1 {
		return 0, fmt.Errorf("vector: invalid ref %+v", r)
	}
	h.counter.BeginOp()
	defer h.counter.EndOp(metrics.OpDequeue)
	v := h.vec.leaves[r.leafID]
	b := r.idx
	i := int64(1)
	for !v.isRoot() {
		dir := v.childDir()
		blk := h.readBlock(v, b)
		sup := h.readSuper(blk)
		supBlk := h.readBlock(v.parent, sup)
		if b > supBlk.end(dir) {
			sup++
			supBlk = h.readBlock(v.parent, sup)
		}
		prevSup := h.readBlock(v.parent, sup-1)
		i += h.readBlock(v, b-1).sumEnq - h.readBlock(v, prevSup.end(dir)).sumEnq
		if dir == dirRight {
			sib := v.sibling()
			i += h.readBlock(sib, supBlk.endLeft).sumEnq -
				h.readBlock(sib, prevSup.endLeft).sumEnq
		}
		v, b = v.parent, sup
	}
	return h.readBlock(v, b-1).sumEnq + i - 1, nil
}

// getAppend walks down from node v's block b to the leaf storing the i-th
// append of that block (the queue's GetEnqueue).
func (h *Handle[T]) getAppend(v *node[T], b, i int64) T {
	for !v.isLeaf() {
		blkB := h.readBlock(v, b)
		prevB := h.readBlock(v, b-1)
		sumLeft := h.readBlock(v.left, blkB.endLeft).sumEnq
		prevLeft := h.readBlock(v.left, prevB.endLeft).sumEnq

		var (
			child        *node[T]
			prevChild    int64
			loIdx, hiIdx int64
		)
		if i <= sumLeft-prevLeft {
			child, prevChild = v.left, prevLeft
			loIdx, hiIdx = prevB.endLeft+1, blkB.endLeft
		} else {
			i -= sumLeft - prevLeft
			child = v.right
			prevChild = h.readBlock(v.right, prevB.endRight).sumEnq
			loIdx, hiIdx = prevB.endRight+1, blkB.endRight
		}
		target := i + prevChild
		lo, hi := loIdx-1, hiIdx
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if h.readBlock(child, mid).sumEnq >= target {
				hi = mid
			} else {
				lo = mid
			}
		}
		i -= h.readBlock(child, hi-1).sumEnq - prevChild
		v, b = child, hi
	}
	return h.readBlock(v, b).element
}

// propagate, refresh, createBlock and advance mirror the queue's write path
// (Figure 4) with dequeue bookkeeping removed.

func (h *Handle[T]) propagate(v *node[T]) {
	for v != nil {
		if !h.refresh(v) {
			h.refresh(v)
		}
		v = v.parent
	}
}

func (h *Handle[T]) refresh(v *node[T]) bool {
	hd := h.readHead(v)
	for _, child := range [2]*node[T]{v.left, v.right} {
		childHead := h.readHead(child)
		h.counter.Read(1)
		if child.blocks.Get(childHead) != nil {
			h.advance(child, childHead)
		}
	}
	b := h.createBlock(v, hd)
	if b == nil {
		return true
	}
	ok := v.blocks.CompareAndSwap(hd, nil, b)
	h.counter.CAS(ok)
	h.advance(v, hd)
	return ok
}

func (h *Handle[T]) createBlock(v *node[T], i int64) *block[T] {
	b := &block[T]{
		endLeft:  h.readHead(v.left) - 1,
		endRight: h.readHead(v.right) - 1,
	}
	b.sumEnq = h.readBlock(v.left, b.endLeft).sumEnq +
		h.readBlock(v.right, b.endRight).sumEnq
	prev := h.readBlock(v, i-1)
	if b.sumEnq == prev.sumEnq {
		return nil
	}
	return b
}

func (h *Handle[T]) advance(v *node[T], hd int64) {
	if !v.isRoot() {
		parentHead := h.readHead(v.parent)
		b := h.readBlock(v, hd)
		ok := b.super.CompareAndSwap(0, parentHead)
		h.counter.CAS(ok)
	}
	ok := v.head.CompareAndSwap(hd, hd+1)
	h.counter.CAS(ok)
}

func (h *Handle[T]) readHead(v *node[T]) int64 {
	h.counter.Read(1)
	return v.head.Load()
}

func (h *Handle[T]) readBlock(v *node[T], i int64) *block[T] {
	h.counter.Read(1)
	return v.blocks.Get(i)
}

func (h *Handle[T]) readSuper(b *block[T]) int64 {
	h.counter.Read(1)
	return b.super.Load()
}

// height is exported for tests via export_test.
func (v *Vector[T]) height() int {
	return bits.Len(uint(len(v.leaves) - 1))
}
