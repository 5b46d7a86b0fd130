package server

import (
	"bufio"
	"errors"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// connReadBuf is a connection's read buffer. A window takes the frames
// that have begun to arrive in it, so it must hold a whole batch frame and
// the start of the next: with bufio's default 4 KiB, an 8 KiB frame of 32
// 256-byte values bypassed the buffer and always came alone, and adjacent
// enqueue batches stopped coalescing into one fabric call.
const connReadBuf = 16 << 10

// Observability constants: the trace ring's capacity and the span
// reservoir's shape (the recent ring for coverage, the slow table for the
// exemplars worth explaining — see obs.Reservoir).
const (
	traceRingCap  = 1024
	spanRecentCap = 128 // most recent traced spans kept by /spanz
	spanSlowCap   = 32  // slowest traced spans kept by /spanz
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
			// Its goroutine fails out of its read or write and tears the
			// session down; closing a connection twice is harmless.
			s.conn.Close()
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

// startSession leases a default-queue handle for conn and spawns its one
// goroutine.
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
	}
	srv.sessions.add(s)
	s.stripe = int(s.id) // histogram stripe affinity; Record masks it
	// Close() closes done before it snapshots the session table, so a
	// session registered concurrently with Close either lands in the
	// snapshot (Close shuts it down) or observes done closed here.
	select {
	case <-srv.done:
		conn.Close()
	default:
	}
	srv.stats.sessionsTotal.Add(1)
	srv.trace.Add("session_open", "", map[string]any{
		"session": s.id, "remote": conn.RemoteAddr().String()})
	srv.wg.Add(1)
	go srv.serveConn(s)
}

// serveConn is the session's one goroutine. It blocks for one frame, takes
// every further frame that has begun to arrive in its read buffer, up to
// the window W (waiting, if it must, only for the rest of a frame whose
// first bytes are in), executes the window — every run of adjacent
// same-direction, same-queue data frames as one fabric batch call
// (run.go), the paper's batch propagation one layer up — and flushes all
// the replies with one socket write. It reads nothing while it executes,
// so a peer that outpaces it meets TCP backpressure and no frame waits
// anywhere but in the socket.
// An idle timeout is a deadline on the window's blocking read and on its
// replies; its expiring reaps the session. Every
// way out (read or write error, deadline, Server.Close) ends in
// finishSession.
func (srv *Server) serveConn(s *session) {
	defer srv.wg.Done()
	defer srv.finishSession(s)
	br := bufio.NewReaderSize(s.conn, connReadBuf)
	fw := &frameWriter{w: s.conn, dequeues: &srv.stats.dequeues}
	window := make([]frame, 0, srv.opts.window)
	idle := srv.opts.idleTimeout
	// One deadline covers reads and writes. It moves, to 1.5×idle out, only
	// once less than idle is left: a peer that stops sending or reading is
	// reaped 1 to 1.5×idle later, and an active session pays the setter
	// (dearer than a small window's fabric call) once per idle/2. It fails
	// only on a closed connection, which the next read or write reports.
	var deadline time.Time
	extend := func() {
		if idle > 0 && time.Until(deadline) < idle {
			deadline = time.Now().Add(idle + idle/2)
			_ = s.conn.SetDeadline(deadline)
		}
	}
	var err error
	for err == nil {
		extend()
		window = window[:0]
		for len(window) == 0 || len(window) < srv.opts.window && br.Buffered() > 0 {
			var f frame
			if f, err = readFramePooled(br, srv.opts.maxFrame); err != nil {
				break // after good frames: answer them, then hang up
			}
			if srv.opts.obs {
				f.at = time.Now().UnixNano()
			}
			window = append(window, f)
		}
		if len(window) == 0 {
			break
		}
		srv.stats.requests.Add(int64(len(window)))
		extend() // the read may have used up most of what was left
		werr := srv.processWindow(s, window, fw)
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
		if werr == nil {
			werr = fw.flush()
		}
		if werr != nil {
			// Spans from the failed window never got their flush stamp and
			// are dropped with it.
			s.winSpans = s.winSpans[:0]
			err = werr
			break
		}
		// The flush landed: close the window's spans with its timestamp and
		// publish them (one clock read per window, and only for windows that
		// carried a traced frame).
		srv.completeSpans(s)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		srv.stats.reaped.Add(1)
		srv.trace.Add("session_reaped", "", map[string]any{
			"session": s.id, "idle_ms": idle.Milliseconds()})
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
	s.conn.Close()
	srv.sessions.remove(s.id)
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
