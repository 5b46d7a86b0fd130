// Package core implements the unbounded-space wait-free FIFO queue of
// Naderibeni and Ruppert, "A Wait-free Queue with Polylogarithmic Step
// Complexity" (PODC 2023), Sections 3-5.
//
// The queue supports p concurrent processes, each bound to its own leaf of a
// static binary ordering tree. Operations are appended to the process's leaf
// and cooperatively propagated to the root with double-Refresh; the root's
// block sequence defines the linearization. Enqueue and empty Dequeue run in
// O(log p) shared-memory steps; a successful Dequeue runs in O(log^2 p +
// log q) steps; every operation issues O(log p) CAS instructions
// (Proposition 19, Theorem 22).
//
// Usage:
//
//	q, err := core.New[int](numGoroutines)
//	h, err := q.Handle(i)   // one handle per goroutine, i in [0, p)
//	h.Enqueue(42)
//	v, ok := h.Dequeue()    // ok == false means the queue was empty
//
// A Handle must be used by at most one goroutine at a time; the Queue as a
// whole is safe for concurrent use through distinct handles.
package core

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
)

// ErrBadProcs reports an invalid process count passed to New.
var ErrBadProcs = errors.New("core: process count must be at least 1")

// Queue is a linearizable wait-free FIFO queue for a fixed set of processes.
type Queue[T any] struct {
	// nodes holds the ordering tree flat in 1-indexed heap order; see
	// node.go for the layout. nodes[0] is unused.
	nodes     []node[T]
	numLeaves int
	handles   []Handle[T]
	procs     int
	arena     blockArena[T]

	// Ablation switches (see Option). Both default to the paper's design.
	plainRootSearch bool
	spinningRefresh bool
}

// Handle is a process's capability to operate on the queue. Each handle owns
// one leaf of the ordering tree. A handle may be used by only one goroutine
// at a time.
type Handle[T any] struct {
	queue *Queue[T]
	// nodes aliases queue.nodes so the hot accessors skip one indirection.
	nodes   []node[T]
	leaf    int // heap index of this handle's leaf
	counter *metrics.Counter

	// Block arena state private to this handle; see pool.go.
	slab  []block[T]
	spare []*block[T]
}

// Option configures a Queue; the zero configuration is the paper's design.
// Options exist to ablate individual design decisions in experiments.
type Option func(*options)

type options struct {
	plainRootSearch bool
	spinningRefresh bool
}

// WithPlainRootSearch replaces FindResponse's doubling search (line 91,
// Lemma 20) with a plain binary search over the entire root history. The
// ablation shows why the doubling search matters: the plain search costs
// O(log(total operations ever)) instead of O(log q).
func WithPlainRootSearch() Option {
	return func(o *options) { o.plainRootSearch = true }
}

// WithSpinningRefresh replaces Propagate's double-Refresh (lines 17-19,
// Lemma 10) with retry-until-success. The result is still linearizable and
// lock-free but no longer wait-free: a process can fail its CAS arbitrarily
// often under contention. The ablation quantifies the CAS traffic the
// double-Refresh rule saves.
func WithSpinningRefresh() Option {
	return func(o *options) { o.spinningRefresh = true }
}

// New creates a queue for up to procs processes. procs must be at least 1.
func New[T any](procs int, opts ...Option) (*Queue[T], error) {
	if procs < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadProcs, procs)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	numLeaves := max(procs, 2)
	q := &Queue[T]{
		nodes:           newTree[T](numLeaves),
		numLeaves:       numLeaves,
		procs:           procs,
		plainRootSearch: o.plainRootSearch,
		spinningRefresh: o.spinningRefresh,
	}
	q.handles = make([]Handle[T], procs)
	for i := 0; i < procs; i++ {
		q.handles[i] = Handle[T]{queue: q, nodes: q.nodes, leaf: numLeaves + i}
	}
	return q, nil
}

// Procs returns the process count the queue was built for.
func (q *Queue[T]) Procs() int { return q.procs }

// Handle returns the handle for process i, 0 <= i < Procs(). The same handle
// value is returned on every call; it is the caller's responsibility that at
// most one goroutine uses it at a time.
func (q *Queue[T]) Handle(i int) (*Handle[T], error) {
	if i < 0 || i >= q.procs {
		return nil, fmt.Errorf("core: handle index %d out of range [0,%d)", i, q.procs)
	}
	return &q.handles[i], nil
}

// MustHandle is Handle for callers with a statically valid index; it panics
// only on programmer error (index out of range).
func (q *Queue[T]) MustHandle(i int) *Handle[T] {
	h, err := q.Handle(i)
	if err != nil {
		panic(err)
	}
	return h
}

// Len returns the size field of the root block below root.head. It is never
// older than the root block of any operation that has returned — every
// refresh ends in advance(v, hd), so head has passed an operation's block
// before its propagate returns — and lags only operations still in flight.
// A reader that sees 0 may answer "empty" like a null dequeue ordered right
// after that block (package shard does; TestLenCoversCompletedOps).
func (q *Queue[T]) Len() int {
	root := &q.nodes[rootIdx]
	h := root.head.Load()
	// blocks[h-1] is always non-nil (Invariant 3).
	return int(root.blocks.Get(h - 1).size)
}

// BlocksInstalled returns the total number of blocks installed across all
// tree nodes since construction (excluding the per-node dummy blocks). The
// unbounded queue never reclaims blocks, so this grows with the operation
// count — the quantity the bounded variant's garbage collection caps
// (compare Queue.TotalBlocks in package bounded).
func (q *Queue[T]) BlocksInstalled() int64 {
	var total int64
	for v := rootIdx; v < len(q.nodes); v++ {
		total += q.nodes[v].head.Load() - 1
	}
	return total
}

// SetCounter attaches a step/CAS counter to the handle. A nil counter
// disables accounting. The counter must not be shared with another live
// handle.
func (h *Handle[T]) SetCounter(c *metrics.Counter) { h.counter = c }

// Counter returns the handle's current counter (possibly nil).
func (h *Handle[T]) Counter() *metrics.Counter { return h.counter }
