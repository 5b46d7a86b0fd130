package queues

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/shard"
)

// shardedQueue adapts shard.Queue[int64] (the sharded fabric) to the Queue
// interface. The fabric's registry is dynamic, but the harness model is a
// fixed set of numbered processes, so the adapter pre-leases every slot at
// construction and hands out lease i as Handle(i).
//
// Note the fabric relaxes cross-shard FIFO order: it must not be run through
// checks that assume a single linearizable FIFO (lincheck, queuetest's
// ordering tests) except with a single shard, where the relaxation vanishes.
type shardedQueue struct {
	q       *shard.Queue[int64]
	handles []*shard.Handle[int64]
	name    string
}

var _ Queue = (*shardedQueue)(nil)

// NewSharded wraps a sharded fabric of the given shard count and backend
// with exactly procs leasable handles, all pre-leased for harness use.
func NewSharded(procs, shards int, backend shard.Backend) (Queue, error) {
	q, err := shard.New[int64](shards, shard.WithBackend(backend), shard.WithMaxHandles(procs))
	if err != nil {
		return nil, err
	}
	s := &shardedQueue{
		q:       q,
		handles: make([]*shard.Handle[int64], procs),
		name:    fmt.Sprintf("sharded-%d(%s)", shards, backend),
	}
	for range s.handles {
		h, err := q.Acquire()
		if err != nil {
			return nil, err
		}
		// The registry leases lowest slots first, so lease i is slot i.
		s.handles[h.Slot()] = h
	}
	return s, nil
}

// Name implements Queue.
func (s *shardedQueue) Name() string { return s.name }

// Procs implements Queue.
func (s *shardedQueue) Procs() int { return len(s.handles) }

// Handle implements Queue.
func (s *shardedQueue) Handle(i int) (Handle, error) {
	if i < 0 || i >= len(s.handles) {
		return nil, fmt.Errorf("sharded: handle index %d out of range [0,%d)", i, len(s.handles))
	}
	return shardedHandle{h: s.handles[i]}, nil
}

// Unwrap exposes the underlying fabric for shard-level diagnostics.
func (s *shardedQueue) Unwrap() *shard.Queue[int64] { return s.q }

type shardedHandle struct {
	h *shard.Handle[int64]
}

var _ BatchHandle = shardedHandle{}

// Enqueue implements Handle. The adapter never closes the fabric, so an
// ErrClosed here is an invariant violation, not an expected condition.
func (s shardedHandle) Enqueue(v int64) {
	if err := s.h.Enqueue(v); err != nil {
		panic(fmt.Sprintf("sharded adapter: %v", err))
	}
}

// EnqueueBatch implements BatchHandle.
func (s shardedHandle) EnqueueBatch(vs []int64) {
	if err := s.h.EnqueueBatch(vs); err != nil {
		panic(fmt.Sprintf("sharded adapter: %v", err))
	}
}

// Dequeue implements Handle.
func (s shardedHandle) Dequeue() (int64, bool) { return s.h.Dequeue() }

// DequeueBatch implements BatchHandle.
func (s shardedHandle) DequeueBatch(n int) ([]int64, int) { return s.h.DequeueBatch(n) }

// SetCounter implements Handle.
func (s shardedHandle) SetCounter(c *metrics.Counter) { s.h.SetCounter(c) }
