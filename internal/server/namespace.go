package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// Namespace errors, shipped to clients as StatusErr payload text.
var (
	// ErrUnknownQueue reports an operation against a queue id or name the
	// namespace does not hold (never created, deleted, or idle-expired).
	ErrUnknownQueue = errors.New("server: unknown queue")
	// ErrTooManyQueues reports an OpOpen that would exceed the server's
	// named-queue cap.
	ErrTooManyQueues = errors.New("server: named queue limit reached")
	// ErrBadQueueName reports an empty or oversized queue name.
	ErrBadQueueName = errors.New("server: queue name must be 1..255 bytes")
	// errDefaultQueue reports an OpDelete aimed at the default queue.
	errDefaultQueue = errors.New("server: the default queue cannot be deleted")
)

// DefaultQueueName is the reserved name of queue 0, the fabric the server
// was started with. Opening it returns id 0; deleting it is refused.
const DefaultQueueName = "default"

// tenant is one queue in the server's namespace: the default fabric
// (id 0) or a named fabric created on first OpOpen. Each tenant owns an
// entire ShardedQueue, so every per-queue guarantee — per-producer FIFO,
// wait-freedom, conservation — is exactly the single-queue guarantee;
// the namespace multiplies queues, it does not weaken them.
type tenant struct {
	id      uint32
	name    string
	q       *shard.Queue[[]byte]
	created time.Time

	// refs counts sessions currently bound to this queue; lastUse is the
	// time of the last bind/unbind transition. Both are guarded by the
	// namespace mutex. The idle clock only matters while refs == 0.
	refs    int
	lastUse time.Time

	// Per-queue operation tallies, counted at the service layer when ops
	// are acknowledged (values, not frames). Atomics: bumped by batch
	// workers without the namespace lock. emptyDeqs counts per *request
	// frame*: dequeue requests that found the queue empty.
	enqueues  atomic.Int64
	dequeues  atomic.Int64
	emptyDeqs atomic.Int64

	// hists holds this queue's per-opcode latency histograms; nil when the
	// server runs with observability off, which also turns every Record
	// call site into a skipped branch.
	hists *obs.OpHists
}

// namespace is the server's queue registry: name -> tenant and id ->
// tenant, with create-on-first-open, an upper bound on named queues, and
// idle teardown for queues no session is bound to. Ids are never reused,
// so a client holding the id of a deleted queue gets ErrUnknownQueue
// rather than another tenant's data.
type namespace struct {
	mu      sync.Mutex
	byName  map[string]*tenant
	byID    map[uint32]*tenant
	nextID  uint32
	max     int // cap on named queues (the default queue is not counted)
	factory func() (*shard.Queue[[]byte], error)

	opened  atomic.Int64 // named queues created
	dropped atomic.Int64 // named queues removed by OpDelete
	expired atomic.Int64 // named queues removed by the idle reaper

	// obsOn decides whether new tenants get latency histograms; trace is
	// the server's control-plane event ring (nil when tracing is off —
	// Ring.Add is a nil-safe no-op).
	obsOn bool
	trace *obs.Ring
}

// init seeds the namespace with the default queue as tenant 0.
func (ns *namespace) init(def *shard.Queue[[]byte], maxQueues int, factory func() (*shard.Queue[[]byte], error), obsOn bool, trace *obs.Ring) {
	ns.obsOn = obsOn
	ns.trace = trace
	t := &tenant{id: 0, name: DefaultQueueName, q: def, created: time.Now(), lastUse: time.Now()}
	if obsOn {
		t.hists = obs.NewOpHists()
	}
	ns.byName = map[string]*tenant{t.name: t}
	ns.byID = map[uint32]*tenant{0: t}
	ns.max = maxQueues
	ns.factory = factory
}

// open returns the tenant for name, instantiating its fabric on first use.
// When bind is set the calling session is counted as bound (refs) under
// the same lock, so a concurrent idle reap cannot tear the queue down
// between creation and first use.
func (ns *namespace) open(name string, bind bool) (*tenant, error) {
	if len(name) == 0 || len(name) > MaxQueueName {
		return nil, ErrBadQueueName
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	t, ok := ns.byName[name]
	if !ok {
		if len(ns.byName)-1 >= ns.max {
			return nil, fmt.Errorf("%w (max %d)", ErrTooManyQueues, ns.max)
		}
		q, err := ns.factory()
		if err != nil {
			return nil, err
		}
		ns.nextID++
		t = &tenant{id: ns.nextID, name: name, q: q, created: time.Now(), lastUse: time.Now()}
		if ns.obsOn {
			t.hists = obs.NewOpHists()
		}
		ns.byName[name] = t
		ns.byID[t.id] = t
		ns.opened.Add(1)
		ns.trace.Add("queue_create", name, map[string]any{
			"id": t.id, "shards": q.Shards()})
	}
	if bind {
		t.refs++
		t.lastUse = time.Now()
	}
	return t, nil
}

// bind resolves a queue id and counts the calling session as bound.
func (ns *namespace) bind(qid uint32) (*tenant, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	t, ok := ns.byID[qid]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownQueue, qid)
	}
	t.refs++
	t.lastUse = time.Now()
	return t, nil
}

// unbind reverses one bind; the queue's idle clock starts when the last
// session unbinds.
func (ns *namespace) unbind(t *tenant) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	t.refs--
	t.lastUse = time.Now()
}

// lookup resolves a queue id without binding (for OpLen, which needs no
// handle lease).
func (ns *namespace) lookup(qid uint32) (*tenant, bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	t, ok := ns.byID[qid]
	return t, ok
}

// remove deletes a named queue: it disappears from the namespace at once
// (subsequent opens create a fresh queue under a fresh id) and its fabric
// is closed, so bound sessions' enqueues start failing StatusClosed while
// their dequeues may drain the remainder. Values still inside the fabric
// are dropped with it — deletion is the owner's explicit choice, exactly
// like closing a local fabric that still holds elements.
func (ns *namespace) remove(name string) error {
	ns.mu.Lock()
	t, ok := ns.byName[name]
	if !ok {
		ns.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownQueue, name)
	}
	if t.id == 0 {
		ns.mu.Unlock()
		return errDefaultQueue
	}
	delete(ns.byName, name)
	delete(ns.byID, t.id)
	ns.dropped.Add(1)
	ns.mu.Unlock()
	ns.trace.Add("queue_delete", name, map[string]any{
		"id": t.id, "len_at_delete": t.q.Len()})
	t.q.Close()
	return nil
}

// reapIdle removes named queues that have had no bound session since
// cutoff and are empty, closing their fabrics, and reports how many it
// removed. Emptiness is part of the predicate: an idle queue still
// holding a backlog is someone's data and survives until drained or
// explicitly deleted.
func (ns *namespace) reapIdle(cutoff time.Time) int {
	ns.mu.Lock()
	var victims []*tenant
	for _, t := range ns.byID {
		if t.id == 0 || t.refs > 0 || t.lastUse.After(cutoff) {
			continue
		}
		if t.q.Len() > 0 {
			continue
		}
		victims = append(victims, t)
	}
	for _, t := range victims {
		delete(ns.byName, t.name)
		delete(ns.byID, t.id)
		ns.expired.Add(1)
	}
	ns.mu.Unlock()
	for _, t := range victims {
		ns.trace.Add("queue_expire", t.name, map[string]any{"id": t.id})
		t.q.Close()
	}
	return len(victims)
}

// tenants snapshots the live tenants so a caller can walk them without
// holding the namespace lock.
func (ns *namespace) tenants() []*tenant {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	out := make([]*tenant, 0, len(ns.byID))
	for _, t := range ns.byID {
		out = append(out, t)
	}
	return out
}

// count returns the number of live queues, including the default queue.
func (ns *namespace) count() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.byID)
}

// QueueStat is a point-in-time view of one queue in the namespace, part
// of the stable /statsz JSON encoding. Enqueues/Dequeues count values
// acknowledged at the service layer (a batch frame carrying m values adds
// m), so per-queue conservation is auditable from the outside: for a
// quiescent queue, Enqueues - Dequeues == Len.
type QueueStat struct {
	ID       uint32 `json:"id"`
	Name     string `json:"name"`
	Sessions int    `json:"sessions"` // sessions currently bound to this queue
	Len      int    `json:"len"`      // fabric backlog estimate
	Enqueues int64  `json:"enqueues"` // values acknowledged enqueued
	Dequeues int64  `json:"dequeues"` // values delivered by dequeue replies

	// Topology state of this queue's fabric: its shard count, the leaves
	// of every shard's ordering tree and how many times leases grew them,
	// and the dequeue requests that found the queue empty.
	Shards        int   `json:"shards"`
	Leaves        int   `json:"leaves"`
	LeafGrowths   int64 `json:"leaf_growths"`
	EmptyDequeues int64 `json:"empty_dequeues"`

	// In-server latency summaries per operation class, measured from the
	// moment a request frame is read off the socket to the moment its
	// reply is written (so window queueing is included). Present only when
	// the server runs with observability on.
	EnqueueLat     *obs.LatencySummary `json:"enqueue_lat,omitempty"`
	DequeueLat     *obs.LatencySummary `json:"dequeue_lat,omitempty"`
	BatchLat       *obs.LatencySummary `json:"batch_lat,omitempty"`
	NullDequeueLat *obs.LatencySummary `json:"null_dequeue_lat,omitempty"`
}

// queueStats snapshots every live queue, ordered by id (the default queue
// first).
func (ns *namespace) queueStats() []QueueStat {
	ns.mu.Lock()
	out := make([]QueueStat, 0, len(ns.byID))
	for _, t := range ns.byID {
		rs := t.q.ResizeStats()
		qs := QueueStat{
			ID:            t.id,
			Name:          t.name,
			Sessions:      t.refs,
			Len:           t.q.Len(),
			Enqueues:      t.enqueues.Load(),
			Dequeues:      t.dequeues.Load(),
			Shards:        t.q.Shards(),
			Leaves:        rs.Leaves,
			LeafGrowths:   rs.LeafGrowths,
			EmptyDequeues: t.emptyDeqs.Load(),
		}
		if t.hists != nil {
			for op, dst := range map[obs.Op]**obs.LatencySummary{
				obs.OpEnqueue:     &qs.EnqueueLat,
				obs.OpDequeue:     &qs.DequeueLat,
				obs.OpBatch:       &qs.BatchLat,
				obs.OpNullDequeue: &qs.NullDequeueLat,
			} {
				if s := t.hists.Summary(op); s.Count > 0 {
					c := s
					*dst = &c
				}
			}
		}
		out = append(out, qs)
	}
	ns.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// aggregateLat merges every live queue's histograms into one summary per
// op class, for the server-wide obs block in Snapshot and /metricsz.
func (ns *namespace) aggregateLat() [obs.NumOps]obs.LatencySummary {
	var accums [obs.NumOps]obs.Accum
	for _, t := range ns.tenants() {
		if t.hists == nil {
			continue
		}
		for op := obs.Op(0); op < obs.NumOps; op++ {
			t.hists.Hist(op).CollectInto(&accums[op])
		}
	}
	var out [obs.NumOps]obs.LatencySummary
	for op := obs.Op(0); op < obs.NumOps; op++ {
		out[op] = accums[op].Summary()
	}
	return out
}
