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
// Dequeues use two-random-choice guided by a lock-free nonempty-shard
// bitmap: a dequeuer tries its home shard, then samples up to two set bits
// and takes the candidate with the larger estimated backlog, and falls back
// to a deterministic full sweep before reporting the fabric empty. A shard
// is asked for elements only if its root reads nonempty (a root of size 0 is
// that shard's null answer), so certifying the fabric empty costs k root
// reads; sub-operations, each wait-free and at most k+3 per call, go only
// where there was something to take.
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
// every slot it could lease: each shard starts with min(4, maxHandles+1)
// leaves (the last one is the fabric's maintenance slot), and the Acquire
// that pops a slot the current trees cannot hold installs a successor
// epoch whose shards have twice the leaves, or as many as the slot needs,
// capped at maxHandles+1 — 4 → 8 → 16 → 17 with the default 16 slots. The
// registry hands out its lowest never-used slot only when every used one
// is leased, so the trees track the high-water lease count. They never
// shrink, and the shard count k stays the one New was given.
//
// The shard set lives behind an immutable, epoch-numbered topology reached
// through one atomic pointer, and a growth installs a successor epoch
// while operations continue: every shard is retired into its successor at
// the same index, and after a grace period its residual elements are
// drained into that successor in their shard-FIFO order — exact
// conservation, per-producer FIFO intact across the epoch boundary. Three
// operations can block, each only while a growth's migration is in
// flight: a producer's first enqueue after the growth (waiting for its old
// shard's drain so its old elements stay ahead of its new ones), a
// dequeue whose sweep found nothing (waiting for the drain rather than
// falsely certifying an occupied fabric empty), and the Acquire that grows
// the trees (it runs the migration itself). Acquire blocks at most
// ⌈log₂((maxHandles+1)/4)⌉ times per fabric, 3 with the default 16 slots.
// Everything else stays wait-free through the swap.
package shard

import (
	"errors"
	"fmt"
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

// subQueue is the per-shard queue surface the fabric needs.
type subQueue[T any] interface {
	Len() int
	handle(i int) (subHandle[T], error)
}

type coreShard[T any] struct{ q *core.Queue[T] }

func (s coreShard[T]) Len() int { return s.q.Len() }
func (s coreShard[T]) handle(i int) (subHandle[T], error) {
	return s.q.Handle(i)
}

type boundedShard[T any] struct{ q *bounded.Queue[T] }

func (s boundedShard[T]) Len() int { return s.q.Len() }
func (s boundedShard[T]) handle(i int) (subHandle[T], error) {
	return s.q.Handle(i)
}

// shardState is one shard plus its routing metadata. Shards are held by
// pointer inside topologies, so a stale handle's tallies still reach the
// state it collected them against. The shard's backlog is read
// straight from the underlying queue's root (Len is O(1) and exact as of
// the last root propagation), so the fabric adds no per-operation atomic of
// its own: enqueue/dequeue tallies are buffered per handle and folded in on
// Release or on an epoch refresh.
type shardState[T any] struct {
	q        subQueue[T]
	counter  *metrics.Counter // cost-model totals folded in under Queue.mu (WithShardMetrics)
	enqueues atomic.Int64
	dequeues atomic.Int64
	// mergedInto points at the shard that inherited this shard's recorded
	// history when a growth retired it (nil while the shard is live). Late
	// folds from handles that collected tallies against a retired shard
	// follow the chain, so lifetime totals survive every growth.
	mergedInto atomic.Pointer[shardState[T]]
	// Pad to a multiple of the cache line so neighbouring shards' tallies
	// never false-share: cross-shard independence is the whole point of
	// the fabric.
	_ [128 - (16+8+8*2+8)%128]byte
}

// len returns the shard's backlog as of its queue's last root propagation.
func (s *shardState[T]) len() int { return s.q.Len() }

// sink follows the merged-into chain to the state that currently owns
// this shard's accumulated history: itself while live, its migration
// destination (transitively) once retired. The chain is time-ordered —
// a retired shard always merges into a successor of a strictly newer
// epoch — so it is acyclic and short.
func (s *shardState[T]) sink() *shardState[T] {
	for {
		next := s.mergedInto.Load()
		if next == nil {
			return s
		}
		s = next
	}
}

// addTally adds n to the tally pick selects on s's sink. A retirement may
// hand the sink's tallies over between the lookup and the add; the add
// then finds the state merged and hands the residue on itself, so a fold
// racing a migration is never lost.
func addTally[T any](s *shardState[T], n int64, pick func(*shardState[T]) *atomic.Int64) {
	for n != 0 {
		s = s.sink()
		pick(s).Add(n)
		if s.mergedInto.Load() == nil {
			return
		}
		n = pick(s).Swap(0)
	}
}

func enqueuesOf[T any](s *shardState[T]) *atomic.Int64 { return &s.enqueues }
func dequeuesOf[T any](s *shardState[T]) *atomic.Int64 { return &s.dequeues }

// Option configures New.
type Option func(*config)

type config struct {
	backend       Backend
	maxHandles    int
	maxHandlesSet bool
	gcInterval    int64
	perShard      bool
}

// WithBackend selects the per-shard queue implementation (default
// BackendBounded, whose GC phases free the blocks of finished operations).
func WithBackend(b Backend) Option {
	return func(c *config) { c.backend = b }
}

// WithMaxHandles caps the number of leasable handle slots (default
// max(16, 4*GOMAXPROCS)): Acquire refuses a lease beyond it, and each
// shard's ordering tree grows with the leases up to maxHandles+1 leaves,
// never past. Every leased slot owns one handle in every shard.
func WithMaxHandles(n int) Option {
	return func(c *config) { c.maxHandles, c.maxHandlesSet = n, true }
}

// WithGCInterval forwards a garbage-collection interval to BackendBounded
// shards; it is ignored by BackendCore. The default is the paper's G for
// the cap, maxHandles+1 processes, whatever size the trees have grown to.
func WithGCInterval(g int64) Option {
	return func(c *config) { c.gcInterval = g }
}

// WithShardMetrics attaches a fresh metrics.Counter per shard to every
// leased handle and folds the counts into per-shard totals when the handle
// is released, so ShardSummaries can report the paper's cost model per
// shard. Handle.SetCounter overrides this for a given lease.
func WithShardMetrics() Option {
	return func(c *config) { c.perShard = true }
}

// Queue is a sharded queue fabric. It is safe for concurrent use; operate on
// it through handles leased with Acquire.
type Queue[T any] struct {
	topo   atomic.Pointer[topology[T]]
	reg    registry
	cfg    config
	closed atomic.Bool
	// nextHome rotates home-shard assignment across leases. Deriving homes
	// from slot numbers would skew routing: the registry free list is LIFO,
	// so sequential short-lived leases would all reuse one slot — and one
	// shard.
	nextHome atomic.Uint64

	// slotEpochs is the per-slot published operation epoch a growth's
	// grace period waits on (see topology.go).
	slotEpochs []slotEpoch

	// growMu serializes tree growths; the data plane never takes it.
	growMu sync.Mutex

	leafGrowths atomic.Int64 // Acquire calls that grew the trees
	migrated    atomic.Int64 // elements drained from retired shards

	// mu guards the per-shard counter totals that released handles merge
	// into (only when WithShardMetrics is set). Release is cold path.
	mu sync.Mutex
}

// New creates a fabric of shards independent queues, each with an ordering
// tree of min(4, maxHandles+1) leaves; Acquire grows the trees as leases
// need it.
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
		cfg:        cfg,
		slotEpochs: make([]slotEpoch, cfg.maxHandles),
	}
	// Epoch 1 succeeds an empty epoch 0, so every shard is built fresh.
	t, err := q.successor(&topology[T]{}, shards, min(4, cfg.maxHandles+1))
	if err != nil {
		return nil, err
	}
	close(t.migrationsDone) // nothing to migrate in the first epoch
	q.topo.Store(t)
	q.reg.init(cfg.maxHandles)
	return q, nil
}

// newSubQueue builds one shard's backing queue with the given number of
// leaves; the last is reserved for the fabric's own maintenance operations
// (migration drains). A bounded shard's G is the one for the cap, so
// growing the trees changes neither how often GC phases run nor
// Theorem 31's space bound.
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

// Shards returns the shard count k the fabric was built with.
func (q *Queue[T]) Shards() int { return len(q.topo.Load().shards) }

// MaxHandles returns the cap on leasable handle slots.
func (q *Queue[T]) MaxHandles() int { return q.cfg.maxHandles }

// Backend returns the per-shard queue implementation in use.
func (q *Queue[T]) Backend() Backend { return q.cfg.backend }

// Acquire leases a handle slot to the calling goroutine. The returned handle
// must be used by one goroutine at a time and returned with Release; until
// then the slot is unavailable to other callers. Acquire returns
// ErrNoFreeHandles when every slot is leased. It is lock-free unless the
// slot it pops is one the shards' trees do not have a leaf for: then it
// grows the trees (see growFor) before it returns, which waits for any
// growth in flight and for its own growth's migration. A closed fabric
// grows too, because consumers lease handles to drain it.
func (q *Queue[T]) Acquire() (*Handle[T], error) {
	slot, ok := q.reg.acquire()
	if !ok {
		return nil, ErrNoFreeHandles
	}
	if slot >= q.topo.Load().maintSlot() {
		if err := q.growFor(slot); err != nil {
			q.reg.release(slot)
			return nil, err
		}
	}
	t := q.topo.Load()
	h := &Handle[T]{
		q:    q,
		slot: slot,
		home: int((q.nextHome.Add(1) - 1) % uint64(len(t.shards))),
		rng:  rngSeed(slot),
	}
	h.refresh(t)
	return h, nil
}

// Close marks the fabric closed: subsequent Enqueues return ErrClosed while
// Dequeue and Drain keep working, so consumers can drain the backlog.
// Enqueues that began before Close completed may still be admitted. Close is
// idempotent. An Acquire may still grow the trees, since consumers lease
// handles in order to drain: a growth moves each shard's elements, in
// order, into its successor at the same index, and a consumer's sweep that
// comes up short waits for that move, so Drain still returns every
// element.
func (q *Queue[T]) Close() { q.closed.Store(true) }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed.Load() }

// Len returns the fabric's total backlog estimate: the sum of the per-shard
// root sizes, including any retired shards still awaiting migration (their
// elements are owed to the successors). Like the underlying queues' Len,
// each addend was exact at some recent moment but may lag concurrent
// operations.
func (q *Queue[T]) Len() int {
	t := q.topo.Load()
	total := 0
	for _, s := range t.shards {
		total += s.len()
	}
	if retired := t.retired.Load(); retired != nil { // migration in flight
		for _, s := range *retired {
			total += s.len()
		}
	}
	return total
}

// ShardStat is a point-in-time view of one shard's traffic. The JSON field
// names are a stable encoding consumed by the service layer's /statsz
// endpoint; renaming them is a wire-format change.
type ShardStat struct {
	Shard    int   `json:"shard"`
	Len      int   `json:"len"`      // backlog as of the shard's last root propagation
	Enqueues int64 `json:"enqueues"` // completed enqueues routed to this shard (migrations included)
	Dequeues int64 `json:"dequeues"` // successful dequeues served by this shard (migrations included)
	Pairs    int64 `json:"pairs"`    // always 0: elimination is gone, bench/ still decodes the field
}

// ShardStats returns per-shard routing statistics, one entry per current
// shard. Len is live; the Enqueues/Dequeues tallies are folded in when a
// lease is Released or refreshed onto a new epoch (keeping them off the
// per-operation hot path), so live handles' traffic is not yet included.
// A growth's drain is not traffic: the successor continues its shard's
// tallies, so each shard's enqueues-dequeues == len audit stays exact.
func (q *Queue[T]) ShardStats() []ShardStat {
	t := q.topo.Load()
	out := make([]ShardStat, len(t.shards))
	for j, s := range t.shards {
		out[j] = ShardStat{
			Shard:    j,
			Len:      s.len(),
			Enqueues: s.enqueues.Load(),
			Dequeues: s.dequeues.Load(),
		}
	}
	return out
}

// ShardSummaries returns the paper's cost-model summary per current shard,
// aggregated from handles that have been Released (live handles' counters
// cannot be read safely). A shard retired by a growth bequeaths its
// accumulated summary to its successor, so the fabric-wide totals survive
// every growth. It returns meaningful data only when the fabric was built
// WithShardMetrics.
func (q *Queue[T]) ShardSummaries() []metrics.Summary {
	t := q.topo.Load()
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]metrics.Summary, len(t.shards))
	for j, s := range t.shards {
		out[j] = metrics.Summarize(s.counter)
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
// topology epoch and growth history, aggregate backlog, per-shard routing
// traffic, lease churn, and (when the fabric was built WithShardMetrics)
// per-shard cost-model summaries.
type Snapshot struct {
	Backend    Backend           `json:"backend"`
	Shards     int               `json:"shards"` // k, fixed at New
	MaxHandles int               `json:"max_handles"`
	Closed     bool              `json:"closed"`
	Len        int               `json:"len"`
	Resize     ResizeStats       `json:"resize"` // epoch, tree growth and migration counters
	ShardStats []ShardStat       `json:"shard_stats"`
	Registry   RegistryStats     `json:"registry"`
	Summaries  []metrics.Summary `json:"summaries,omitempty"`
}

// Snapshot captures the fabric's current statistics. Cost-model summaries
// are included only when the fabric was built WithShardMetrics (they are
// all-zero otherwise and would only bloat the encoding).
func (q *Queue[T]) Snapshot() Snapshot {
	s := Snapshot{
		Backend:    q.cfg.backend,
		Shards:     q.Shards(),
		MaxHandles: q.cfg.maxHandles,
		Closed:     q.closed.Load(),
		Len:        q.Len(),
		Resize:     q.ResizeStats(),
		ShardStats: q.ShardStats(),
		Registry:   q.RegistryStats(),
	}
	if q.cfg.perShard {
		s.Summaries = q.ShardSummaries()
	}
	return s
}

// mergeShardCounters folds a handle's per-shard counters into the given
// shard states' totals (the states of the topology the counters were
// collected against). A state retired since the counters were collected
// forwards to its migration destination, so no recorded cost-model work
// is dropped by a growth.
func (q *Queue[T]) mergeShardCounters(states []*shardState[T], counters []*metrics.Counter) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for j, c := range counters {
		states[j].sink().counter.Merge(c)
	}
}
