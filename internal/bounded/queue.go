// Package bounded implements the bounded-space variant of the Naderibeni-
// Ruppert wait-free queue (paper Section 6 and Appendix B).
//
// Each ordering-tree node stores its blocks in a persistent search structure
// instead of an infinite array (the paper's red-black tree; here
// internal/pbst's sequence over the dense block indices, which the code
// keeps calling the node's block tree); a Refresh builds the next tree
// functionally and installs it with one CAS on the node's tree pointer.
// A block whose install carries a node's cumulative operation count
// (sumEnq+sumDeq) across a multiple of G triggers a garbage-collection
// phase: the process determines the oldest block still needed (via the
// shared last array), helps every pending dequeue that has reached the root
// compute its response, and then splits the obsolete prefix off the tree
// (the paper counts blocks; addBlock says why this counts operations). Live
// blocks per node stay O(q_max + p^2 log p) (Theorem 31) and amortized step
// complexity is O(log p log(p+q_max)) per operation (Theorem 32).
package bounded

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/pbst"
)

// ErrBadProcs reports an invalid process count passed to New.
var ErrBadProcs = errors.New("bounded: process count must be at least 1")

// errDiscarded is returned (internally) when a search fails because garbage
// collection removed a needed block. Per Lemma 28 this implies the
// operation's result is already available: an enqueue may simply terminate
// and a dequeue reads its helped response.
var errDiscarded = errors.New("bounded: block discarded by GC")

// blockTree is the persistent tree of blocks each node stores, keyed by
// block index.
type blockTree[T any] = pbst.Seq[block[T]]

// node is one node of the static ordering tree.
type node[T any] struct {
	left, right, parent *node[T]

	// blocks points at the node's current persistent block tree. Updated
	// only by CAS; readers operate on an immutable snapshot.
	blocks atomic.Pointer[blockTree[T]]

	// Pad to 128 bytes (two cache lines): the hot tree pointer above takes
	// a CAS from every Refresh, and without padding nodes allocated
	// back-to-back false-share under concurrent propagation. 3 pointers +
	// atomic.Pointer = 32 bytes.
	_ [128 - 32]byte
}

func (n *node[T]) isLeaf() bool { return n.left == nil }

func (n *node[T]) isRoot() bool { return n.parent == nil }

func (n *node[T]) childDir() direction {
	if n.parent.left == n {
		return left
	}
	return right
}

func (n *node[T]) sibling() *node[T] {
	if n.parent.left == n {
		return n.parent.right
	}
	return n.parent.left
}

// Queue is the bounded-space wait-free FIFO queue.
type Queue[T any] struct {
	root   *node[T]
	leaves []*node[T]
	// last[k] is the largest root-block index process k has observed to
	// contain a null dequeue or an enqueue whose value was dequeued; GC uses
	// the maximum entry to find the oldest block still needed (Appendix B).
	last    []atomic.Int64
	handles []Handle[T]
	procs   int
	gcEvery int64

	// arena recycles never-published Refresh candidate blocks across
	// handles; see pool.go.
	arena sync.Pool
}

// Option configures a Queue.
type Option func(*config)

type config struct {
	gcEvery int64
}

// WithGCInterval overrides the garbage-collection interval G (a GC phase
// runs when a block added to a node carries the node's cumulative operation
// count sumEnq+sumDeq across a multiple of G). The default is the paper's
// G = p^2 * ceil(log2 p). Small values stress GC in tests; non-positive
// values are rejected.
func WithGCInterval(g int64) Option {
	return func(c *config) { c.gcEvery = g }
}

// New creates a bounded-space queue for up to procs processes.
func New[T any](procs int, opts ...Option) (*Queue[T], error) {
	if procs < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadProcs, procs)
	}
	cfg := config{gcEvery: defaultGCInterval(procs)}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.gcEvery < 1 {
		return nil, fmt.Errorf("bounded: GC interval must be positive (got %d)", cfg.gcEvery)
	}
	root, leaves := buildTree[T](max(procs, 2))
	q := &Queue[T]{
		root:    root,
		leaves:  leaves,
		last:    make([]atomic.Int64, procs),
		procs:   procs,
		gcEvery: cfg.gcEvery,
	}
	q.handles = make([]Handle[T], procs)
	for i := 0; i < procs; i++ {
		q.handles[i] = Handle[T]{queue: q, leaf: leaves[i], id: i}
	}
	return q, nil
}

// defaultGCInterval is the paper's G = p^2 ceil(log2 p), floored at 16: the
// formula targets large p and degenerates to G <= 4 for p <= 2, where a GC
// phase per couple of operations would dominate the cost without any space
// benefit (the bound already includes a +G slack).
func defaultGCInterval(procs int) int64 {
	logP := int64(bits.Len(uint(procs - 1)))
	g := int64(procs) * int64(procs) * logP
	if g < 16 {
		g = 16
	}
	return g
}

// buildTree constructs the ordering tree with numLeaves leaves in 1-indexed
// heap shape, as core lays it out flat: node i's children are 2i and 2i+1,
// the leaves are nodes numLeaves..2*numLeaves-1, and leaves[k] is node
// numLeaves+k. Every leaf sits at depth floor or ceil of log2 numLeaves.
// Each node's tree starts with the empty block at index 0.
func buildTree[T any](numLeaves int) (*node[T], []*node[T]) {
	nodes := make([]*node[T], 2*numLeaves)
	for i := len(nodes) - 1; i >= 1; i-- {
		n := &node[T]{}
		var t *blockTree[T]
		n.blocks.Store(t.Append(0, &block[T]{}))
		if i < numLeaves {
			n.left, n.right = nodes[2*i], nodes[2*i+1]
			n.left.parent, n.right.parent = n, n
		}
		nodes[i] = n
	}
	return nodes[1], nodes[numLeaves:]
}

// Procs returns the process count the queue was built for.
func (q *Queue[T]) Procs() int { return q.procs }

// GCInterval returns the configured GC interval G.
func (q *Queue[T]) GCInterval() int64 { return q.gcEvery }

// Handle returns the handle for process i, 0 <= i < Procs(). At most one
// goroutine may use a handle at a time.
func (q *Queue[T]) Handle(i int) (*Handle[T], error) {
	if i < 0 || i >= q.procs {
		return nil, fmt.Errorf("bounded: handle index %d out of range [0,%d)", i, q.procs)
	}
	return &q.handles[i], nil
}

// MustHandle is Handle for statically valid indices.
func (q *Queue[T]) MustHandle(i int) *Handle[T] {
	h, err := q.Handle(i)
	if err != nil {
		panic(err)
	}
	return h
}

// Len returns the size field of the newest block installed at the root. The
// one CAS on the root's tree pointer installs a block, so Len is never older
// than the root block of any operation that has returned and lags only those
// in flight (TestLenCoversCompletedOps); see core.Queue.Len on reading 0.
func (q *Queue[T]) Len() int {
	_, b, ok := q.root.blocks.Load().Max()
	if !ok {
		return 0
	}
	return int(b.size)
}

// BlockCounts returns the number of live blocks in each tree node's block
// tree, in preorder. It drives the Theorem 31 space experiments.
func (q *Queue[T]) BlockCounts() []int64 {
	var out []int64
	var walk func(n *node[T])
	walk = func(n *node[T]) {
		out = append(out, n.blocks.Load().Size())
		if !n.isLeaf() {
			walk(n.left)
			walk(n.right)
		}
	}
	walk(q.root)
	return out
}

// TotalBlocks returns the total number of live blocks across all nodes.
func (q *Queue[T]) TotalBlocks() int64 {
	var sum int64
	for _, c := range q.BlockCounts() {
		sum += c
	}
	return sum
}

// Handle is a process's capability to operate on the queue.
type Handle[T any] struct {
	queue   *Queue[T]
	leaf    *node[T]
	id      int
	counter *metrics.Counter

	// spare stacks recycled candidate blocks private to this handle; see
	// pool.go.
	spare []*block[T]

	// rootHint is the index of the root block this handle's previous root
	// search found, where its next one starts (completeDeqN). It is the
	// handle's own memory, so reading it costs no shared-memory step.
	rootHint int64
}

// SetCounter attaches a step/CAS counter to the handle (nil disables).
func (h *Handle[T]) SetCounter(c *metrics.Counter) { h.counter = c }

// Counter returns the handle's current counter (possibly nil).
func (h *Handle[T]) Counter() *metrics.Counter { return h.counter }
