package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// Observability constants: the trace ring's capacity, the sampling
// stride that keeps a hot control-plane event source (BUSY replies) from
// flooding it, and the span reservoir's
// shape (the recent ring for coverage, the slow table for the exemplars
// worth explaining — see obs.Reservoir).
const (
	traceRingCap    = 1024
	busySampleEvery = 1024 // trace the 1st, 1025th, ... BUSY reply
	spanRecentCap   = 128  // most recent traced spans kept by /spanz
	spanSlowCap     = 32   // slowest traced spans kept by /spanz
)

// Server is a TCP queue service fronting a namespace of sharded fabrics:
// the default queue it was started with (id 0) plus any named queues
// clients open.
type Server struct {
	q        *shard.Queue[[]byte]
	ln       net.Listener
	opts     options
	ns       namespace
	sessions sessionTable
	stats    serverStats
	trace    *obs.Ring // control-plane event ring; nil when observability is off
	// Request-tracing state, nil when observability is off: the exemplar
	// reservoir behind /spanz and the per-stage histograms behind the
	// stage_lat snapshot block. Both are fed only by frames the client
	// flagged with OpTraceFlag, so untraced traffic pays nothing for them.
	spans      *obs.Reservoir
	stageHists *obs.StageHists
	start      time.Time
	wg         sync.WaitGroup
	done       chan struct{}
	closed     sync.Once
}

// Serve listens on addr (e.g. "127.0.0.1:0" for an ephemeral port) and
// serves q — as the namespace's default queue 0 — until Close. Each
// accepted connection leases one handle of q for its lifetime; when the
// registry is exhausted the connection is refused with a StatusErr frame
// so clients can distinguish "service full" from a network failure.
// Handles of named queues are leased per (connection, queue) on first
// use.
func Serve(addr string, q *shard.Queue[[]byte], opts ...Option) (*Server, error) {
	o, err := resolveOptions(q, opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		q:     q,
		ln:    ln,
		opts:  o,
		start: time.Now(),
		done:  make(chan struct{}),
	}
	if o.obs {
		srv.trace = obs.NewRing(traceRingCap)
		srv.spans = obs.NewReservoir(spanRecentCap, spanSlowCap)
		srv.stageHists = obs.NewStageHists()
	}
	srv.ns.init(q, o.maxQueues, o.factory, o.obs, srv.trace)
	srv.sessions.init()
	srv.wg.Add(1)
	go srv.acceptLoop()
	if o.idleTimeout > 0 {
		srv.wg.Add(1)
		go srv.reapLoop(o.idleTimeout)
	}
	if o.queueIdle > 0 {
		srv.wg.Add(1)
		go srv.queueReapLoop(o.queueIdle)
	}
	return srv, nil
}

// Addr returns the listener's address (with the ephemeral port resolved).
func (srv *Server) Addr() net.Addr { return srv.ln.Addr() }

// Queue returns the namespace's default queue 0, the fabric this server
// was started with. Named queues' fabrics are server-owned and reachable
// only through the wire protocol and Snapshot.
func (srv *Server) Queue() *shard.Queue[[]byte] { return srv.q }

// Close stops accepting, closes every live session (releasing its handle
// lease), and waits for all connection goroutines to finish. It does not
// close the underlying fabric; that remains the owner's decision.
func (srv *Server) Close() error {
	srv.closed.Do(func() {
		close(srv.done)
		srv.ln.Close()
		for _, s := range srv.sessions.snapshot() {
			s.shutdown()
		}
	})
	srv.wg.Wait()
	return nil
}

func (srv *Server) acceptLoop() {
	defer srv.wg.Done()
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			select {
			case <-srv.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (e.g. EMFILE): back off briefly
			// rather than spinning the accept loop hot.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		srv.startSession(conn)
	}
}

// startSession leases a default-queue handle for conn and spawns its read
// loop + batch worker pair.
func (srv *Server) startSession(conn net.Conn) {
	h, err := srv.q.Acquire()
	if err != nil {
		// Tell the client why before hanging up. Frame id 0 marks a
		// connection-level (not request-level) failure.
		srv.stats.sessionsDenied.Add(1)
		srv.trace.Add("session_denied", "", map[string]any{
			"remote": conn.RemoteAddr().String(), "error": err.Error()})
		_, _ = conn.Write(appendFrame(nil, 0, StatusErr, []byte(err.Error()))) // best effort: hanging up either way
		conn.Close()
		return
	}
	def, err := srv.ns.bind(0)
	if err != nil { // unreachable: tenant 0 always exists
		h.Release()
		conn.Close()
		return
	}
	s := &session{
		conn:     conn,
		srv:      srv,
		bindings: map[uint32]*binding{0: {t: def, h: h}},
		reqCh:    make(chan frame, srv.opts.window),
	}
	s.touch()
	srv.sessions.add(s)
	s.stripe = int(s.id) // histogram stripe affinity; Record masks it
	// Close() closes done before it snapshots the session table, so a
	// session registered concurrently with Close either lands in the
	// snapshot (Close shuts it down) or observes done closed here.
	select {
	case <-srv.done:
		s.shutdown()
	default:
	}
	srv.stats.sessionsTotal.Add(1)
	srv.trace.Add("session_open", "", map[string]any{
		"session": s.id, "remote": conn.RemoteAddr().String()})
	srv.wg.Add(2)
	go srv.readLoop(s)
	go srv.batchWorker(s)
}

// readLoop parses frames off the socket and feeds the worker through the
// bounded window. When the window is full the request is converted into a
// BUSY marker, and the (blocking) handoff of that marker is what pauses
// reading — overload degrades into explicit rejections first and TCP
// backpressure second, never into unbounded buffering.
func (srv *Server) readLoop(s *session) {
	defer srv.wg.Done()
	// The worker drains reqCh until it is closed, so close it only after
	// the last send.
	defer close(s.reqCh)
	br := bufio.NewReader(s.conn)
	for {
		f, err := readFramePooled(br, srv.opts.maxFrame)
		if err != nil {
			return
		}
		// One clock read serves both the idle reaper and the frame's
		// observability stamp, so histograms cost the hot read path no
		// extra time.Now.
		now := time.Now().UnixNano()
		s.lastActive.Store(now)
		if srv.opts.obs {
			f.at = now
		}
		srv.stats.requests.Add(1)
		select {
		case s.reqCh <- f:
		default:
			// Window full: reject this request. The BUSY marker still
			// takes a window slot, so this send blocks until the worker
			// frees one — pausing the read loop is the backpressure. The
			// rejected frame's body dies here: the marker carries only the
			// id, so the buffer recycles immediately.
			putBuf(f.payload)
			if n := srv.stats.busy.Add(1); (n-1)%busySampleEvery == 0 {
				srv.trace.Add("busy", "", map[string]any{
					"session": s.id, "busy_total": n})
			}
			s.reqCh <- frame{id: f.id, kind: StatusBusy}
		}
	}
}

// batchWorker owns the session's write side: it waits for one pending
// request, greedily drains whatever else has accumulated (at most one
// window), executes it against the session's leased handles — every run of
// adjacent same-direction, same-queue data frames as one fabric batch call
// (run.go) — and flushes all the replies with a single socket write: the
// paper's batch propagation applied at the network layer, all the way down
// (a run of m pipelined enqueues becomes one m-op leaf block and one tree
// walk). It also owns teardown: when reqCh closes, the handle leases are
// released and the session unregistered.
func (srv *Server) batchWorker(s *session) {
	defer srv.wg.Done()
	defer srv.finishSession(s)
	fw := &frameWriter{w: s.conn}
	window := make([]frame, 0, srv.opts.window)
	for {
		f, ok := <-s.reqCh
		if !ok {
			return
		}
		window = append(window[:0], f)
	drain:
		for len(window) < srv.opts.window {
			select {
			case f, more := <-s.reqCh:
				if !more {
					ok = false // connection gone; flushes become best-effort
					break drain
				}
				window = append(window, f)
			default:
				break drain
			}
		}
		err := srv.processWindow(s, window, fw)
		srv.stats.batches.Add(1)
		srv.stats.frames.Add(int64(len(window)))
		// The window's frame bodies go back to the pool. Every reference
		// into them is gone by now: enqueue payloads were copied out at admit
		// time, reply bytes were copied into the egress scratch, error
		// strings were materialized by Sprintf/string(), and spans carry
		// timestamps only.
		for i := range window {
			putBuf(window[i].payload)
			window[i].payload = nil
		}
		if err == nil {
			err = fw.flush()
		}
		if err != nil {
			// The socket is broken; unblock the read loop (it may be
			// mid-read or mid-send), then drain reqCh until its close
			// lands so no sender is left stranded. Spans from the failed
			// window never got their flush stamp and are dropped with it.
			s.winSpans = s.winSpans[:0]
			s.shutdown()
			for f := range s.reqCh {
				putBuf(f.payload)
			}
			return
		}
		// The flush landed: close the window's spans with its timestamp and
		// publish them (one clock read per window, and only for windows that
		// carried a traced frame).
		srv.completeSpans(s)
		if !ok {
			return
		}
	}
}

// finishSession releases every queue lease the session holds and
// unregisters it. Per queue, stashed values (dequeued from that queue's
// fabric but never shipped) are returned to the same fabric first, so a
// client disconnecting between an overflowing batch dequeue and the next
// request cannot lose values; the re-enqueue appends them behind the
// current backlog, trading their FIFO position for conservation. Only a
// fabric closed by its owner — or a named queue its owner deleted — can
// make this fail, and then the loss is the owner's explicit choice.
func (srv *Server) finishSession(s *session) {
	s.shutdown()
	if srv.sessions.remove(s.id) {
		srv.trace.Add("session_close", "", map[string]any{
			"session": s.id, "queues_bound": len(s.bindings)})
		for _, b := range s.bindings {
			if b.h != nil {
				// Fails only on a closed fabric, and then the loss is the
				// owner's choice (see above).
				_ = b.h.EnqueueBatch(b.pending())
				b.h.Release()
			}
			srv.ns.unbind(b.t)
		}
	}
}
