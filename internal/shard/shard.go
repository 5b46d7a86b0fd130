// Package shard implements a sharded queue fabric: k independent wait-free
// FIFO queues (the paper's unbounded queue from package core, or the
// space-bounded variant from package bounded) behind a single frontend that
// multiplies root bandwidth by the shard count.
//
// The Naderibeni-Ruppert queue funnels all p processes through one tournament
// tree, so a single root CAS location bounds total throughput no matter how
// large p grows. The fabric trades global FIFO order for scalability: each
// element is FIFO-ordered relative to the other elements of its shard, but
// elements of different shards may be dequeued out of their enqueue order.
// Because every handle routes all of its enqueues to a single home shard,
// per-producer order is still preserved for the lifetime of a lease.
//
// Every operation reaches a shard the way the paper's queue applies one:
// as a block appended to a leaf and propagated to the root. A block carries
// a set of operations, so the fabric has one path per direction —
// EnqueueBatch and DequeueBatchAppend — and single ops are the n=1 case.
//
// The shards' roots are the fabric's only record of its shards: a root
// block's size is the shard's backlog, and a size of 0 is its null answer.
// A dequeuer first tries its sticky shard — the one that served its last
// call, its home until something else has — if that root reads nonempty
// and the shard has served fewer than 64 calls in a row (stickiness, as in
// Williams, Sanders and Dementiev's "Engineering MultiQueues": consecutive
// pulls reuse what the last one touched, and the budget keeps a shard
// that never empties from starving the others). Then it makes two guided
// attempts, each sampling two shards uniformly and taking from the one
// whose root reads larger (two-random-choice), and falls back to a
// deterministic sweep of every shard before reporting the fabric empty;
// whichever shard serves the call becomes sticky. So certifying the fabric
// empty costs at most k+5 root reads, and sub-operations, each wait-free
// and at most k+3 per call, go only where there was something to take.
// The roots' sums are the shards' traffic statistics too (ShardStats).
//
// Unlike the paper's model — a fixed set of p processes, each statically
// bound to handle i — the fabric leases its fixed handle slots to arbitrary
// goroutines through a dynamic registry:
//
//	q, err := shard.New[string](8)              // 8 shards
//	h, err := q.Acquire()                       // lease a handle slot
//	defer h.Release()                           // recycle it
//	h.Enqueue("job")
//	v, ok := h.Dequeue()
//
// The registry is a CAS-claimed free list, so Release is lock-free and
// safe to call from any goroutine at any time, and so is Acquire except
// when it grows the ordering trees (below).
//
// # Trees sized to the leases
//
// The paper prices every operation by the height of the ordering tree,
// which has one leaf per process. The fabric does not build its shards for
// every slot it could lease: each shard's tree starts with min(4, P)
// leaves, P being the smallest power of two at or above maxHandles (and
// 2), and the Acquire that pops a slot the trees have no leaf for doubles
// every shard's tree in place — 4 → 8 → 16 with the default 16 slots. A
// doubling puts a fresh root over the old tree and a fresh tree of the same
// size (core.Queue.Grow, bounded.Queue.Grow): it costs O(k·p), whatever
// the backlog, moves no element and keeps every handle on its leaf and
// every producer on its home shard. The registry hands out its lowest
// never-used slot only when every used one is leased, so the trees track
// the high-water lease count. They never shrink, and the shard count k
// stays the one New was given.
//
// A growth needs the trees to itself, so the fabric has one blocking
// point: a gate that a growth closes. Every operation marks its slot busy
// and then checks the gate; a growth closes the gate, waits until no slot
// is busy, grows every shard and reopens it. Operations that meet the
// closed gate wait for the growth, which waits only for operations already
// running, each wait-free; the Acquire that grows blocks for as long.
// Acquire grows at most ⌈log₂(P/4)⌉ times per fabric, twice with the
// default 16 slots. Everything else stays wait-free.
package shard

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Backend selects the per-shard queue implementation.
type Backend string

// Supported backends.
const (
	// BackendCore uses the unbounded-space queue (paper Sections 3-5).
	BackendCore Backend = "core"
	// BackendBounded uses the space-bounded queue (paper Section 6).
	BackendBounded Backend = "bounded"
)

// Errors reported by the fabric.
var (
	ErrBadShards     = errors.New("shard: shard count must be at least 1")
	ErrBadHandles    = errors.New("shard: max handle count must be at least 1")
	ErrBadBackend    = errors.New("shard: unknown backend")
	ErrNoFreeHandles = errors.New("shard: all handle slots are leased")
	ErrClosed        = errors.New("shard: queue is closed")
)

// subHandle is the per-shard handle surface the fabric needs; both
// core.Handle and bounded.Handle satisfy it. The batch methods install one
// multi-op leaf block per call, which is what lets the fabric route a whole
// client batch through a single O(log p) propagation pass; a batch of one
// stores its element inline and is the same tree work as a single op.
type subHandle[T any] interface {
	EnqueueBatch(vs []T)
	DequeueBatchAppend(dst []T, n int) ([]T, int)
	SetCounter(c *metrics.Counter)
}

// subQueue is the per-shard queue surface the fabric needs. Totals reads
// the newest root block's sumEnq and size, exact as of the last root
// propagation. Grow doubles the queue's tree and runs only while no
// operation does.
type subQueue[T any] interface {
	Totals() (enqueues, size int64)
	Grow()
	handle(i int) subHandle[T]
}

type coreShard[T any] struct{ q *core.Queue[T] }

func (s coreShard[T]) Totals() (int64, int64)    { return s.q.Totals() }
func (s coreShard[T]) Grow()                     { s.q.Grow() }
func (s coreShard[T]) handle(i int) subHandle[T] { return s.q.MustHandle(i) }

type boundedShard[T any] struct{ q *bounded.Queue[T] }

func (s boundedShard[T]) Totals() (int64, int64)    { return s.q.Totals() }
func (s boundedShard[T]) Grow()                     { s.q.Grow() }
func (s boundedShard[T]) handle(i int) subHandle[T] { return s.q.MustHandle(i) }

// Option configures New.
type Option func(*config)

type config struct {
	backend       Backend
	maxHandles    int
	maxHandlesSet bool
	gcInterval    int64
}

// WithBackend selects the per-shard queue implementation (default
// BackendBounded, whose GC phases free the blocks of finished operations).
func WithBackend(b Backend) Option {
	return func(c *config) { c.backend = b }
}

// WithMaxHandles caps the number of leasable handle slots (default
// max(16, 4*GOMAXPROCS)): Acquire refuses a lease beyond it, and each
// shard's ordering tree grows with the leases up to the smallest power of
// two at or above n (and 2), never past. Every leased slot owns one handle
// in every shard.
func WithMaxHandles(n int) Option {
	return func(c *config) { c.maxHandles, c.maxHandlesSet = n, true }
}

// WithGCInterval forwards a garbage-collection interval to BackendBounded
// shards; it is ignored by BackendCore. The default is the paper's G for
// maxHandles+1 processes, whatever size the trees have grown to.
func WithGCInterval(g int64) Option {
	return func(c *config) { c.gcInterval = g }
}

// Queue is a sharded queue fabric. It is safe for concurrent use; operate on
// it through handles leased with Acquire.
type Queue[T any] struct {
	shards []subQueue[T]
	// subs[i] holds slot i's handle in every shard, made by the growth
	// that gives the trees a leaf for slot i (by New for the first ones).
	// Sub-handles are stable pointers, and a lease of slot i uses subs[i].
	subs   [][]subHandle[T]
	reg    registry
	cfg    config
	closed atomic.Bool
	// nextHome rotates home-shard assignment across leases. Deriving homes
	// from slot numbers would skew routing: the registry free list is LIFO,
	// so sequential short-lived leases would all reuse one slot — and one
	// shard.
	nextHome atomic.Uint64

	// growing is the growth in flight, nil while the gate is open, and
	// busy[i] is 1 while slot i's lease runs an operation (Handle.enter).
	growing atomic.Pointer[growth]
	busy    []padUint64

	// growMu serializes growths; the data plane never takes it.
	growMu      sync.Mutex
	leaves      atomic.Int64 // leaves of every shard's tree
	leafGrowths atomic.Int64 // tree doublings
}

// growth is one growth of the shards' trees; done closes when it ends.
type growth struct{ done chan struct{} }

// padUint64 is an atomic word alone on two cache lines.
type padUint64 struct {
	v atomic.Uint64
	_ [120]byte
}

// New creates a fabric of shards independent queues, each with an ordering
// tree of min(4, P) leaves; Acquire grows the trees as leases need it.
func New[T any](shards int, opts ...Option) (*Queue[T], error) {
	cfg := config{backend: BackendBounded}
	for _, opt := range opts {
		opt(&cfg)
	}
	if !cfg.maxHandlesSet {
		cfg.maxHandles = 4 * runtime.GOMAXPROCS(0)
		if cfg.maxHandles < 16 {
			cfg.maxHandles = 16
		}
	}
	if shards < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadShards, shards)
	}
	if cfg.maxHandles < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadHandles, cfg.maxHandles)
	}
	q := &Queue[T]{
		shards: make([]subQueue[T], shards),
		subs:   make([][]subHandle[T], cfg.maxHandles),
		cfg:    cfg,
		busy:   make([]padUint64, cfg.maxHandles),
	}
	// P, the power of two at or above max(2, maxHandles), is as far as the
	// trees grow: Acquire never pops a slot at or past maxHandles.
	leaves := min(4, 1<<bits.Len(uint(max(2, cfg.maxHandles)-1)))
	for j := range q.shards {
		sub, err := newSubQueue[T](cfg, leaves)
		if err != nil {
			return nil, err
		}
		q.shards[j] = sub
	}
	q.addSubs(0, leaves)
	q.leaves.Store(int64(leaves))
	q.reg.init(cfg.maxHandles)
	return q, nil
}

// newSubQueue builds one shard's backing queue with the given number of
// leaves. A bounded shard's G is the one for the cap, so growing the trees
// changes neither how often GC phases run nor Theorem 31's space bound.
func newSubQueue[T any](cfg config, leaves int) (subQueue[T], error) {
	switch cfg.backend {
	case BackendCore:
		cq, err := core.New[T](leaves)
		if err != nil {
			return nil, err
		}
		return coreShard[T]{q: cq}, nil
	case BackendBounded:
		g := cfg.gcInterval
		if g <= 0 {
			g = bounded.DefaultGCInterval(cfg.maxHandles + 1)
		}
		bq, err := bounded.New[T](leaves, bounded.WithGCInterval(g))
		if err != nil {
			return nil, err
		}
		return boundedShard[T]{q: bq}, nil
	default:
		return nil, fmt.Errorf("%w %q", ErrBadBackend, cfg.backend)
	}
}

// addSubs fills subs for the leasable slots among from..to-1, which the
// trees have leaves for.
func (q *Queue[T]) addSubs(from, to int) {
	for i := from; i < min(to, len(q.subs)); i++ {
		q.subs[i] = make([]subHandle[T], len(q.shards))
		for j, s := range q.shards {
			q.subs[i][j] = s.handle(i)
		}
	}
}

// Shards returns the shard count k the fabric was built with.
func (q *Queue[T]) Shards() int { return len(q.shards) }

// MaxHandles returns the cap on leasable handle slots.
func (q *Queue[T]) MaxHandles() int { return q.cfg.maxHandles }

// Backend returns the per-shard queue implementation in use.
func (q *Queue[T]) Backend() Backend { return q.cfg.backend }

// Acquire leases a handle slot to the calling goroutine. The returned handle
// must be used by one goroutine at a time and returned with Release; until
// then the slot is unavailable to other callers. Acquire returns
// ErrNoFreeHandles when every slot is leased. It is lock-free unless the
// slot it pops is one the shards' trees have no leaf for: then it grows the
// trees (see grow) before it returns. A closed fabric grows too, because
// consumers lease handles to drain it.
func (q *Queue[T]) Acquire() (*Handle[T], error) {
	slot, ok := q.reg.acquire()
	if !ok {
		return nil, ErrNoFreeHandles
	}
	if int64(slot) >= q.leaves.Load() {
		q.grow(slot)
	}
	home := int((q.nextHome.Add(1) - 1) % uint64(len(q.shards)))
	h := &Handle[T]{
		q:      q,
		slot:   slot,
		home:   home,
		rng:    rngSeed(slot),
		sticky: home,
		budget: stickyPulls,
		sub:    q.subs[slot],
	}
	// Sub-handles are recycled across leases; clear whatever counter the
	// previous lessee left behind.
	h.SetCounter(nil)
	return h, nil
}

// rngSeed derives a nonzero, well-mixed PRNG seed from a slot number
// (splitmix64 finalizer).
func rngSeed(slot int) uint64 {
	z := uint64(slot) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// grow doubles every shard's tree until it has a leaf for slot, which
// Acquire has just popped. It closes the gate, waits until no operation
// runs, grows and reopens the gate: O(k·p) with the trees to itself.
// Growths serialize on growMu, and a growth that finds the trees already
// grown far enough by a concurrent Acquire does nothing.
func (q *Queue[T]) grow(slot int) {
	q.growMu.Lock()
	defer q.growMu.Unlock()
	from := int(q.leaves.Load())
	if slot < from {
		return
	}
	g := &growth{done: make(chan struct{})}
	q.growing.Store(g)
	for i := range q.busy {
		for q.busy[i].v.Load() != 0 {
			runtime.Gosched()
		}
	}
	leaves := from
	for ; leaves <= slot; leaves *= 2 {
		for _, s := range q.shards {
			s.Grow()
		}
		q.leafGrowths.Add(1)
	}
	q.addSubs(from, leaves)
	q.leaves.Store(int64(leaves))
	q.growing.Store(nil)
	close(g.done)
}

// ResizeStats counts tree growths over the fabric's lifetime. The JSON
// field names are a stable encoding consumed by the service layer's
// /statsz endpoint.
type ResizeStats struct {
	Leaves      int   `json:"leaves"`       // leaves of every shard's ordering tree now
	LeafGrowths int64 `json:"leaf_growths"` // tree doublings
}

// ResizeStats returns the fabric's tree-growth counters.
func (q *Queue[T]) ResizeStats() ResizeStats {
	return ResizeStats{Leaves: int(q.leaves.Load()), LeafGrowths: q.leafGrowths.Load()}
}

// Close marks the fabric closed: subsequent Enqueues return ErrClosed while
// Dequeue and Drain keep working, so consumers can drain the backlog.
// Enqueues that began before Close completed may still be admitted. Close is
// idempotent. An Acquire may still grow the trees, since consumers lease
// handles in order to drain; a growth moves no element, so Drain still
// returns every one.
func (q *Queue[T]) Close() { q.closed.Store(true) }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed.Load() }

// Len returns the fabric's total backlog estimate: the sum of the per-shard
// root sizes. Like the underlying queues' Len, each addend was exact at
// some recent moment but may lag concurrent operations.
func (q *Queue[T]) Len() int {
	total := 0
	for j := range q.shards {
		total += int(q.size(j))
	}
	return total
}

// size returns shard j's backlog as of its last root propagation.
func (q *Queue[T]) size(j int) int64 {
	_, n := q.shards[j].Totals()
	return n
}

// ShardStat is a point-in-time view of one shard's traffic, read from the
// shard's newest root block: all three counts are exact as of its last root
// propagation. The JSON field names are a stable encoding consumed by the
// service layer's /statsz endpoint; renaming them is a wire-format change.
type ShardStat struct {
	Shard    int   `json:"shard"`
	Len      int   `json:"len"`      // backlog: the root's size
	Enqueues int64 `json:"enqueues"` // enqueues applied to this shard: the root's sumEnq
	Dequeues int64 `json:"dequeues"` // successful dequeues: Enqueues - Len
	Pairs    int64 `json:"pairs"`    // always 0: elimination is gone, bench/ still decodes the field
}

// ShardStats returns per-shard traffic statistics, live leases' included.
func (q *Queue[T]) ShardStats() []ShardStat {
	out := make([]ShardStat, len(q.shards))
	for j, s := range q.shards {
		enq, size := s.Totals()
		out[j] = ShardStat{Shard: j, Len: int(size), Enqueues: enq, Dequeues: enq - size}
	}
	return out
}

// RegistryStats is a point-in-time view of handle-lease churn through the
// dynamic registry. Like ShardStat, its JSON encoding is stable.
type RegistryStats struct {
	Capacity int   `json:"capacity"` // total leasable slots
	InUse    int   `json:"in_use"`   // slots currently leased (approximate under churn)
	Acquires int64 `json:"acquires"` // completed Acquire calls over the fabric's lifetime
	Releases int64 `json:"releases"` // completed Release calls
	Failures int64 `json:"failures"` // Acquire calls that found no free slot
}

// RegistryStats returns lease-churn statistics for the handle registry.
// InUse is derived from a free-list walk and is only exact while no
// Acquire/Release is in flight; the churn tallies are always exact.
func (q *Queue[T]) RegistryStats() RegistryStats {
	return RegistryStats{
		Capacity: q.cfg.maxHandles,
		InUse:    q.cfg.maxHandles - q.reg.free(),
		Acquires: q.reg.acquires.Load(),
		Releases: q.reg.releases.Load(),
		Failures: q.reg.failures.Load(),
	}
}

// Snapshot is a stable JSON-encodable view of the whole fabric: identity,
// tree growth, aggregate backlog, per-shard routing traffic and lease
// churn.
type Snapshot struct {
	Backend    Backend       `json:"backend"`
	Shards     int           `json:"shards"` // k, fixed at New
	MaxHandles int           `json:"max_handles"`
	Closed     bool          `json:"closed"`
	Len        int           `json:"len"`
	Resize     ResizeStats   `json:"resize"` // tree growth counters
	ShardStats []ShardStat   `json:"shard_stats"`
	Registry   RegistryStats `json:"registry"`
}

// Snapshot captures the fabric's current statistics.
func (q *Queue[T]) Snapshot() Snapshot {
	return Snapshot{
		Backend:    q.cfg.backend,
		Shards:     q.Shards(),
		MaxHandles: q.cfg.maxHandles,
		Closed:     q.closed.Load(),
		Len:        q.Len(),
		Resize:     q.ResizeStats(),
		ShardStats: q.ShardStats(),
		Registry:   q.RegistryStats(),
	}
}
