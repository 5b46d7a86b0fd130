package server

import (
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// session is one accepted connection and the fabric handles leased to it.
// Leases are per (connection, queue): the default queue's handle is
// acquired at accept (so a full registry refuses the connection up
// front), named queues' handles are acquired lazily on the first
// operation that targets them, and every lease is released at teardown —
// the paper's per-process handle becomes a per-client-per-queue
// capability and registry churn mirrors connection churn.
type session struct {
	id   uint64
	conn net.Conn
	srv  *Server

	// stripe is this session's latency-histogram stripe affinity, derived
	// from id at accept. Each session records into its own stripe so
	// concurrent sessions never contend on a histogram cache line;
	// obs.Record masks it into range.
	stripe int

	// bindings maps queue id -> this session's lease on that queue. The
	// session's goroutine owns it exclusively (the default binding is
	// installed before it starts), so no lock is needed; cross-session
	// bookkeeping (tenant refcounts) lives in the namespace.
	bindings map[uint32]*binding

	// decs is the session's scratch for the current window's decoded
	// queue addressing, reused across passes.
	decs []decoded

	// vals is the session's value-header scratch for enqueue runs,
	// reused across them. Only slice headers live here — the value bytes are
	// pooled copies whose ownership moves to the fabric (or back to the
	// pool, if the queue is closed) before the scratch is reused.
	vals [][]byte

	// admitNs is the session's admit stamp for the current window,
	// taken once per pass and only when the window carries a sampled traced
	// frame; every span the pass produces shares it. fabricStart and
	// fabricEnd bound the current run's fabric call the same way (zero when
	// the run carries no sampled frame).
	admitNs                int64
	fabricStart, fabricEnd int64

	// winSpans parks the current window's traced spans between their reply
	// write and the pass's socket flush, which closes their last stage
	// (completeSpans publishes them and resets the slice).
	winSpans []*obs.Span
}

// binding is one session's attachment to one queue: the tenant (refs
// counted in the namespace), the handle leased from that queue's fabric,
// and the session's per-queue overflow stash.
type binding struct {
	t *tenant

	// h is the handle leased from the tenant's fabric. It is nil between
	// OpOpen and the first data operation: opening a queue reserves it
	// (refs keep the idle reaper away) without spending a registry slot.
	h *shard.Handle[[]byte]

	// stash[head:] holds values already dequeued from this queue's fabric
	// but not yet shipped: a dequeue run pulls its whole total here and
	// deals replies from the front (run.go), so what a reply's byte budget
	// or count left behind, or a failed write handed back (unconsume), is
	// here, in dequeue order, for the next run to ship before the fabric is
	// touched again. The session's goroutine owns it exclusively; teardown
	// re-enqueues any remainder into the same queue so no value is lost
	// when a client disconnects with values parked. The buffer is kept
	// across runs (head rewinds when it drains), so steady-state pulls
	// allocate nothing. Queue.Len does not count parked values.
	stash [][]byte
	head  int
}

// bind resolves the session's binding for a queue id, creating it (and
// leasing a handle from the queue's fabric) on first use. A failure is
// request-scoped — the reply is StatusErr — never connection-scoped: an
// unknown id or an exhausted per-queue registry must not kill a session
// that is happily using other queues.
func (s *session) bind(qid uint32) (*binding, error) {
	if b, ok := s.bindings[qid]; ok {
		if b.h == nil {
			h, err := b.t.q.Acquire()
			if err != nil {
				return nil, err // not cached: a slot may free up later
			}
			b.h = h
		}
		return b, nil
	}
	t, err := s.srv.ns.bind(qid)
	if err != nil {
		return nil, err
	}
	h, err := t.q.Acquire()
	if err != nil {
		s.srv.ns.unbind(t)
		return nil, err
	}
	b := &binding{t: t, h: h}
	s.bindings[qid] = b
	return b, nil
}

// sessionTable tracks live sessions for shutdown, reaping, and stats.
// Session setup and teardown are cold paths next to the per-frame work, so
// a plain mutex-guarded map is enough.
type sessionTable struct {
	mu     sync.Mutex
	nextID uint64
	live   map[uint64]*session
}

func (t *sessionTable) init() { t.live = make(map[uint64]*session) }

// add registers a session and assigns its id.
func (t *sessionTable) add(s *session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s.id = t.nextID
	t.live[s.id] = s
}

// remove drops a session. Each session's goroutine removes its own, once.
func (t *sessionTable) remove(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.live, id)
}

// snapshot copies the live sessions so callers can act on them without
// holding the table lock across conn operations.
func (t *sessionTable) snapshot() []*session {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*session, 0, len(t.live))
	for _, s := range t.live {
		out = append(out, s)
	}
	return out
}

// count returns the number of live sessions.
func (t *sessionTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live)
}

// queueReapLoop tears down named queues that have been empty and unbound
// longer than timeout, so a tenant that opened a queue, drained it, and
// went away does not pin a whole fabric forever. It wakes at half the
// timeout, so a queue goes at most 1.5x the timeout after it fell idle.
func (srv *Server) queueReapLoop(timeout time.Duration) {
	defer srv.wg.Done()
	tick := time.NewTicker(timeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-srv.done:
			return
		case <-tick.C:
		}
		srv.ns.reapIdle(time.Now().Add(-timeout))
	}
}
