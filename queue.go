// Package repro is a from-scratch Go implementation of the wait-free FIFO
// queue with polylogarithmic step complexity by Naderibeni and Ruppert
// (PODC 2023, arXiv:2305.07229), together with its bounded-space variant,
// the vector extension from the paper's Section 7, the baseline queues the
// paper compares against, and a benchmark harness that reproduces the
// paper's analytical claims empirically.
//
// # Quick start
//
//	q, err := repro.NewQueue[string](numWorkers)
//	if err != nil { ... }
//	// one handle per goroutine:
//	h := q.MustHandle(workerID)
//	h.Enqueue("job")
//	v, ok := h.Dequeue() // ok == false: queue was empty
//
// Every Enqueue completes in O(log p) shared-memory steps and every Dequeue
// in O(log^2 p + log q) steps regardless of scheduling (p = number of
// handles, q = queue length), using only single-word CAS. The queue is
// linearizable and wait-free.
//
// The operation path is batch-native: a handle can install many operations
// in one leaf block, paying the ordering-tree walk once per batch instead
// of once per operation (the paper's blocks carry operation sets; the batch
// API exposes that capacity):
//
//	h.EnqueueBatch([]string{"a", "b", "c"}) // one block, one propagation
//	vs, n := h.DequeueBatch(8)              // up to 8 elements, ditto
//
// Batch elements linearize consecutively and interleave with single
// operations in FIFO order; a short DequeueBatch count means the queue was
// empty when the batch's remaining dequeues took effect. The same methods
// exist on BoundedHandle, ShardedHandle (whole batch to the home shard,
// preserving per-producer order), and the service client (native
// ENQ_BATCH/DEQ_BATCH wire frames; see Serve below). Experiment T12 in
// EXPERIMENTS.md quantifies the amortization.
//
// NewBoundedQueue builds the space-bounded variant (Section 6 of the
// paper), which garbage-collects blocks that are no longer needed and keeps
// memory polynomial in p and the maximum queue length while retaining
// O(log p log(p+q)) amortized steps per operation.
//
// NewVector builds the append-only sequence from the paper's Section 7.
//
// NewShardedQueue builds the sharded queue fabric: k independent queues
// behind one frontend, trading cross-shard FIFO order for k-fold root
// bandwidth, with handle slots leased dynamically to goroutines via
// Acquire/Release instead of the paper's static numbering:
//
//	q, err := repro.NewShardedQueue[string](8)
//	h, err := q.Acquire()
//	defer h.Release()
//	h.Enqueue("job")
//	v, ok := h.Dequeue()
//
// The fabric keeps the shard count it was built with. Its shards'
// ordering trees start small and grow with the leases: the Acquire that
// needs a leaf the trees lack installs a successor epoch with bigger
// trees while operations continue, draining every shard into its
// successor with exact conservation and per-producer FIFO preserved.
//
// Serve exposes a byte-valued fabric over TCP as the default queue of a
// multi-tenant namespace — each client connection leases fabric handles
// per (connection, queue), pipelined requests are batched into single
// fabric passes, and overload is answered with explicit BUSY replies
// instead of unbounded buffering:
//
//	q, err := repro.NewShardedQueue[[]byte](8)
//	srv, err := repro.Serve("127.0.0.1:0", q)
//	defer srv.Close()
//	c, err := repro.Dial(srv.Addr().String())
//	defer c.Close()
//	err = c.Enqueue([]byte("job"))
//	v, ok, err := c.Dequeue() // ok == false: queue was empty
//
// Named queues multiply tenants on one server without weakening any
// per-queue guarantee: QueueClient.Open creates a queue on first use —
// each named queue is its own sharded fabric, torn down again when idle
// and empty — and returns a binding whose operations pipeline on the
// same connection:
//
//	jobs, err := c.Open("jobs")
//	err = jobs.Enqueue([]byte("render"))
//	v2, ok, err := jobs.Dequeue()
//	err = c.Delete("jobs") // explicit teardown; stale ids then fail loudly
//
// (cmd/queued serves a standalone instance; the repo benchmark,
// bash bench/run.sh, load-tests it.)
//
// See README.md for the tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the reproduction results.
package repro

import (
	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/vector"
)

// Queue is the unbounded-space wait-free queue (paper Sections 3-5).
type Queue[T any] = core.Queue[T]

// Handle is a process's access point to a Queue; use one per goroutine.
type Handle[T any] = core.Handle[T]

// NewQueue creates a wait-free queue for up to procs concurrent processes.
func NewQueue[T any](procs int) (*Queue[T], error) {
	return core.New[T](procs)
}

// BoundedQueue is the space-bounded wait-free queue (paper Section 6).
type BoundedQueue[T any] = bounded.Queue[T]

// BoundedHandle is a process's access point to a BoundedQueue.
type BoundedHandle[T any] = bounded.Handle[T]

// BoundedOption configures NewBoundedQueue.
type BoundedOption = bounded.Option

// WithGCInterval overrides the garbage-collection interval G (default:
// the paper's p^2 ceil(log2 p)).
func WithGCInterval(g int64) BoundedOption {
	return bounded.WithGCInterval(g)
}

// NewBoundedQueue creates a space-bounded wait-free queue for up to procs
// concurrent processes.
func NewBoundedQueue[T any](procs int, opts ...BoundedOption) (*BoundedQueue[T], error) {
	return bounded.New[T](procs, opts...)
}

// Vector is the wait-free append-only sequence (paper Section 7).
type Vector[T any] = vector.Vector[T]

// VectorHandle is a process's access point to a Vector.
type VectorHandle[T any] = vector.Handle[T]

// VectorRef identifies an appended element for Index queries.
type VectorRef = vector.Ref

// NewVector creates a wait-free vector for up to procs concurrent
// processes.
func NewVector[T any](procs int) (*Vector[T], error) {
	return vector.New[T](procs)
}

// ShardedQueue is a fabric of independent wait-free queues with relaxed
// cross-shard FIFO order and dynamically leased handles (see package
// internal/shard for the full semantics).
type ShardedQueue[T any] = shard.Queue[T]

// ShardedHandle is a leased access point to a ShardedQueue; obtain one with
// Acquire and return it with Release.
type ShardedHandle[T any] = shard.Handle[T]

// ShardedOption configures NewShardedQueue.
type ShardedOption = shard.Option

// ShardBackend selects the per-shard queue implementation.
type ShardBackend = shard.Backend

// Per-shard backends: the unbounded-space queue (Sections 3-5) or the
// space-bounded variant (Section 6).
const (
	ShardBackendCore    ShardBackend = shard.BackendCore
	ShardBackendBounded ShardBackend = shard.BackendBounded
)

// ErrQueueClosed is returned by ShardedHandle.Enqueue after Close.
var ErrQueueClosed = shard.ErrClosed

// ErrNoFreeHandles is returned by ShardedQueue.Acquire when every handle
// slot is leased.
var ErrNoFreeHandles = shard.ErrNoFreeHandles

// WithShardBackend selects the per-shard queue implementation (default
// ShardBackendCore).
func WithShardBackend(b ShardBackend) ShardedOption { return shard.WithBackend(b) }

// WithShardMaxHandles caps the number of leasable handle slots (default
// max(16, 4*GOMAXPROCS)): Acquire refuses a lease beyond it. The shards'
// ordering trees start at 4 leaves and grow with the leases up to n+1,
// never past.
func WithShardMaxHandles(n int) ShardedOption { return shard.WithMaxHandles(n) }

// WithShardGCInterval forwards a GC interval to ShardBackendBounded shards.
func WithShardGCInterval(g int64) ShardedOption { return shard.WithGCInterval(g) }

// WithShardMetrics enables per-shard cost-model accounting, reported by
// ShardedQueue.ShardSummaries.
func WithShardMetrics() ShardedOption { return shard.WithShardMetrics() }

// NewShardedQueue creates a sharded queue fabric with the given shard count.
func NewShardedQueue[T any](shards int, opts ...ShardedOption) (*ShardedQueue[T], error) {
	return shard.New[T](shards, opts...)
}
