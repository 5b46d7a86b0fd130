package queues

import (
	"fmt"
	"sync/atomic"

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

// resizeDriver replays a shard-count schedule against a fabric as the
// harness operates on it: every `every` completed operations, the next
// schedule entry is applied with Resize (cycling). It makes the epoch
// swap machinery part of every conformance check instead of a dedicated
// test's concern.
type resizeDriver struct {
	q        *shard.Queue[int64]
	schedule []int
	every    int64
	ops      atomic.Int64
	next     atomic.Int64
}

func (d *resizeDriver) tick() {
	if d.ops.Add(1)%d.every != 0 {
		return
	}
	i := int((d.next.Add(1) - 1) % int64(len(d.schedule)))
	if err := d.q.Resize(d.schedule[i]); err != nil {
		panic(fmt.Sprintf("sharded adapter: resize to %d: %v", d.schedule[i], err))
	}
}

// resizingQueue is shardedQueue plus a resize schedule woven through the
// operation stream.
type resizingQueue struct {
	*shardedQueue
	d *resizeDriver
}

// NewShardedResizing wraps a single-shard fabric whose topology is driven
// through schedule (shard counts, cycled) every `every` operations while
// the suite runs. All handles are pre-leased on the 1-shard fabric, so
// they share home shard 0 and keep it across every grow (homes are stable
// until their shard is retired) — the fabric must therefore behave
// exactly like a strict FIFO queue at every point of the schedule, which
// lets the full conformance suite (sequential models included) run across
// live resizes.
func NewShardedResizing(procs int, schedule []int, every int64, backend shard.Backend) (Queue, error) {
	if len(schedule) == 0 || every < 1 {
		return nil, fmt.Errorf("sharded: resize schedule must be nonempty with every >= 1")
	}
	q, err := NewSharded(procs, 1, backend)
	if err != nil {
		return nil, err
	}
	sq := q.(*shardedQueue)
	sq.name = fmt.Sprintf("sharded-elastic(%s)", backend)
	return &resizingQueue{
		shardedQueue: sq,
		d:            &resizeDriver{q: sq.q, schedule: schedule, every: every},
	}, nil
}

// Handle implements Queue, wrapping each operation with the schedule tick.
func (r *resizingQueue) Handle(i int) (Handle, error) {
	h, err := r.shardedQueue.Handle(i)
	if err != nil {
		return nil, err
	}
	return resizingHandle{h: h.(shardedHandle), d: r.d}, nil
}

type resizingHandle struct {
	h shardedHandle
	d *resizeDriver
}

var _ BatchHandle = resizingHandle{}

// The tick runs after the wrapped operation completes, so a triggered
// Resize (and its grace wait) never overlaps this handle's own in-flight
// operation.
func (r resizingHandle) Enqueue(v int64)         { r.h.Enqueue(v); r.d.tick() }
func (r resizingHandle) EnqueueBatch(vs []int64) { r.h.EnqueueBatch(vs); r.d.tick() }
func (r resizingHandle) Dequeue() (int64, bool)  { v, ok := r.h.Dequeue(); r.d.tick(); return v, ok }
func (r resizingHandle) DequeueBatch(n int) ([]int64, int) {
	vs, got := r.h.DequeueBatch(n)
	r.d.tick()
	return vs, got
}
func (r resizingHandle) SetCounter(c *metrics.Counter) { r.h.SetCounter(c) }
