// Package bounded implements the bounded-space variant of the Naderibeni-
// Ruppert wait-free queue (paper Section 6 and Appendix B).
//
// Each ordering-tree node keeps its blocks in a store of write-once chunks
// (store.go) where the paper keeps a persistent red-black tree. A Refresh
// is core's: it helps a lagging child's head along, CASes its block into
// the slot at the node's head and advances the head. Superblocks are found
// by searching the parent's end(dir) fields (Lemma 4'), so blocks carry no
// super field. A block whose install carries a node's cumulative operation
// count (sumEnq+sumDeq) across a multiple of G triggers a garbage-collection
// phase before the install: the process determines the oldest block still
// needed (via the shared last array), helps every pending dequeue that has
// reached the root compute its response, and then unlinks the obsolete
// prefix of the node's store in place (the paper counts blocks; addBlock
// says why this counts operations). A read that finds a needed block
// dropped means the operation was already answered (errDiscarded). Live
// blocks per node stay O(q_max + p^2 log p) (Theorem 31) and amortized step
// complexity is O(log p log(p+q_max)) per operation (Theorem 32). A store
// access outside the chunk of a node's newest blocks costs the log64 of the
// node's history on top (store.go); every access is counted.
package bounded

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/metrics"
)

// ErrBadProcs reports an invalid process count passed to New.
var ErrBadProcs = errors.New("bounded: process count must be at least 1")

// errDiscarded is returned (internally) when a search fails because garbage
// collection removed a needed block. Per Lemma 28 this implies the
// operation's result is already available: an enqueue may simply terminate
// and a dequeue reads its helped response.
var errDiscarded = errors.New("bounded: block discarded by GC")

// node is one node of the static ordering tree.
type node struct {
	left, right, parent *node

	// blocks holds the node's blocks by index. A leaf's blocks are the heads
	// of leafBlock allocations.
	blocks store

	// head is the index of the next install attempt: every block below it
	// is installed and none above it (Invariant 3). It only moves forward,
	// by CAS from the index its caller read.
	head atomic.Int64

	// depth is the node's distance from the root. A handle's path holds one
	// node per depth, so it picks the slab the node's blocks come from
	// (pool.go).
	depth int

	// Pad to 128 bytes (two cache lines): head takes a CAS from every
	// Refresh, and without padding nodes allocated back-to-back false-share
	// under concurrent propagation. 3 pointers + store + head + depth = 64
	// bytes.
	_ [128 - 64]byte
}

func (n *node) isLeaf() bool { return n.left == nil }

func (n *node) isRoot() bool { return n.parent == nil }

func (n *node) childDir() direction {
	if n.parent.left == n {
		return left
	}
	return right
}

func (n *node) sibling() *node {
	if n.parent.left == n {
		return n.parent.right
	}
	return n.parent.left
}

// Queue is the bounded-space wait-free FIFO queue.
type Queue[T any] struct {
	// root is the tree's root. Operations, and readers outside them, load
	// it here, since Grow replaces it.
	root   atomic.Pointer[node]
	leaves []*node
	// last[k] is the largest root-block index process k has observed to
	// contain a null dequeue or an enqueue whose value was dequeued; GC uses
	// the maximum entry to find the oldest block still needed (Appendix B).
	last    []atomic.Int64
	handles []*Handle[T]
	procs   int
	gcEvery int64
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
	cfg := config{gcEvery: DefaultGCInterval(procs)}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.gcEvery < 1 {
		return nil, fmt.Errorf("bounded: GC interval must be positive (got %d)", cfg.gcEvery)
	}
	root, leaves := buildTree[T](max(procs, 2))
	q := &Queue[T]{leaves: leaves, gcEvery: cfg.gcEvery}
	q.root.Store(root)
	q.addHandles(procs)
	return q, nil
}

// addHandles makes the handles for processes Procs() .. procs-1, each on
// its own fresh leaf, and their entries of the last array.
func (q *Queue[T]) addHandles(procs int) {
	last := make([]atomic.Int64, procs)
	for k := range q.last {
		last[k].Store(q.last[k].Load())
	}
	q.last = last
	for i := q.procs; i < procs; i++ {
		leaf := q.leaves[i]
		q.handles = append(q.handles, &Handle[T]{queue: q, leaf: leaf, id: i, slabs: make([]slab, leaf.depth),
			last: (*block)(leaf.blocks.load(0, nil))})
	}
	q.procs = procs
}

// DefaultGCInterval is the paper's G = p^2 ceil(log2 p), floored at 16: the
// formula targets large p and degenerates to G <= 4 for p <= 2, where a GC
// phase per couple of operations would dominate the cost without any space
// benefit (the bound already includes a +G slack). New uses it for procs; a
// caller that sizes a queue below the process count it is provisioned for
// (the shard fabric's growing trees) passes that count's value explicitly.
func DefaultGCInterval(procs int) int64 {
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
// Each node's store starts with the empty block at index 0, a leafBlock at
// the leaves (leafOf's invariant), and its head at 1.
func buildTree[T any](numLeaves int) (*node, []*node) {
	nodes := make([]*node, 2*numLeaves)
	for i := len(nodes) - 1; i >= 1; i-- {
		n := &node{depth: bits.Len(uint(i)) - 1}
		sentinel := &block{}
		if i >= numLeaves {
			sentinel = &new(leafBlock[T]).block
		}
		n.blocks.init(sentinel)
		n.head.Store(1)
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
	return q.handles[i], nil
}

// MustHandle is Handle for statically valid indices.
func (q *Queue[T]) MustHandle(i int) *Handle[T] {
	h, err := q.Handle(i)
	if err != nil {
		panic(err)
	}
	return h
}

// Len returns the size field of the root block below the root's head. Every
// Refresh ends by advancing the head past the slot it tried, so Len is
// never older than the root block of any operation that has returned and
// lags only those in flight (TestLenCoversCompletedOps); see core.Queue.Len
// on reading 0. It retries only when GC phases ran past the head it read.
func (q *Queue[T]) Len() int {
	_, size := q.Totals()
	return int(size)
}

// Totals returns the sumEnq and size of the block Len reads, from one load;
// see core.Queue.Totals.
func (q *Queue[T]) Totals() (enqueues, size int64) {
	for {
		root := q.root.Load()
		if p := root.blocks.load(root.head.Load()-1, nil); p != tomb {
			return (*block)(p).sumEnq, (*block)(p).size
		}
	}
}

// BlockCounts returns the number of live blocks in each tree node's store,
// in preorder: those from the store's lo up to its head. It drives the
// Theorem 31 space experiments.
func (q *Queue[T]) BlockCounts() []int64 {
	var out []int64
	var walk func(n *node)
	walk = func(n *node) {
		out = append(out, n.head.Load()-n.blocks.lo.Load())
		if !n.isLeaf() {
			walk(n.left)
			walk(n.right)
		}
	}
	walk(q.root.Load())
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
	leaf    *node
	id      int
	counter *metrics.Counter

	// slabs[d] is the bump slab the handle carves its blocks for the node
	// at depth d on its path from; see pool.go.
	slabs []slab

	// last is the newest block of the handle's leaf, which only this handle
	// appends to: the next leaf block goes at last.index+1. GC never drops
	// a node's newest block.
	last *block

	// rootHint is the index of the root block this handle's previous root
	// search found, where its next one starts (completeDeqN). It is the
	// handle's own memory, so reading it costs no shared-memory step.
	rootHint int64
}

// SetCounter attaches a step/CAS counter to the handle (nil disables).
func (h *Handle[T]) SetCounter(c *metrics.Counter) { h.counter = c }

// Counter returns the handle's current counter (possibly nil).
func (h *Handle[T]) Counter() *metrics.Counter { return h.counter }
