package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
)

// Client-visible errors.
var (
	// ErrBusy reports an operation answered BUSY (status 0x82). This
	// server never sends it — the status is reserved — so it comes only
	// from older servers, whose in-flight window was full; retry after
	// draining some pending replies.
	ErrBusy = errors.New("server: busy, in-flight window full")
	// ErrClosedQueue reports an enqueue against a closed fabric.
	ErrClosedQueue = errors.New("server: queue is closed")
	// ErrClientClosed reports use of a Client after Close (or after its
	// connection failed).
	ErrClientClosed = errors.New("server: client closed")
)

// call is one in-flight request. The reply is delivered on done (for
// synchronous calls a dedicated buffered channel; pipelined callers may
// share one completion channel sized so the reader never blocks). tag is
// opaque caller context carried through the pipeline (e.g. the load
// generator's per-op schedule metadata).
type call struct {
	f    frame
	err  error
	done chan *call
	tag  any

	// recvNs is the read loop's receive stamp, taken only for traced
	// replies (the flag on the status byte marks them); it closes the span
	// on the client's clock. 0 for plain replies.
	recvNs int64

	// own is the call's private completion channel, created once and kept
	// across pool cycles for synchronous round trips (pipelined callers
	// pass their own shared channel instead).
	own chan *call
}

// callPool recycles call structs between putCall and getCall, so
// steady-state traffic allocates no per-request bookkeeping.
var callPool = sync.Pool{New: func() any { return new(call) }}

// getCall returns a reset call completing on done (or on its private
// channel when done is nil).
func getCall(done chan *call, tag any) *call {
	cl := callPool.Get().(*call)
	cl.f = frame{}
	cl.err = nil
	cl.tag = tag
	cl.recvNs = 0
	if done == nil {
		if cl.own == nil {
			cl.own = make(chan *call, 1)
		}
		done = cl.own
	}
	cl.done = done
	return cl
}

// putCall recycles a completed call. Callers must have copied everything
// they need out of it — the reply frame, the error, the tag — and must be
// the sole holder (a call is completed exactly once, so the receiver of
// that completion is).
func putCall(cl *call) {
	cl.f = frame{}
	cl.err = nil
	cl.done = nil
	cl.tag = nil
	callPool.Put(cl)
}

// Client speaks the wire protocol over one TCP connection. All methods are
// safe for concurrent use; requests issued concurrently are pipelined on
// the single connection and matched to replies by id, and they share
// socket writes: one caller at a time writes, and it ships every frame
// queued behind it (see flush). A Client holds one server-side session —
// and so one fabric handle lease — for its lifetime.
type Client struct {
	conn net.Conn

	wmu     sync.Mutex // guards out, spare, writing
	out     []byte     // frames encoded but not yet written
	spare   []byte     // the last written buffer, reused as the next out
	writing bool       // a flush is writing; it ships whatever lands in out

	mu      sync.Mutex // guards pending, nextID, err
	pending map[uint64]*call
	nextID  uint64
	err     error // terminal error, set once the read loop exits

	readerDone chan struct{}
	maxFrame   int
}

// Dial connects to a queue server at addr with the default frame-size cap
// (DefaultMaxFrame, matching a default-configured server).
func Dial(addr string) (*Client, error) {
	return DialMaxFrame(addr, DefaultMaxFrame)
}

// DialMaxFrame is Dial with an explicit frame-size cap. Match it to the
// server's -max-frame: a client cap below the server's silently truncates
// nothing but kills the connection on the first oversized reply — after
// the value has already left the queue.
func DialMaxFrame(addr string, maxFrame int) (*Client, error) {
	if maxFrame < frameHeader {
		return nil, fmt.Errorf("server: max frame %d below header size", maxFrame)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn, maxFrame), nil
}

// newClient starts a client over an established connection.
func newClient(conn net.Conn, maxFrame int) *Client {
	c := &Client{
		conn:       conn,
		pending:    make(map[uint64]*call),
		readerDone: make(chan struct{}),
		maxFrame:   maxFrame,
	}
	go c.readLoop()
	return c
}

// Close tears down the connection; the server releases the session's
// handle lease. In-flight calls fail with ErrClientClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// readLoop matches reply frames to pending calls. A frame with id 0 is a
// connection-level failure (e.g. the handle registry was exhausted at
// accept); it poisons the whole client.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReader(c.conn)
	for {
		f, err := readFrame(br, c.maxFrame)
		if err == nil && f.id == 0 {
			err = fmt.Errorf("server refused session: %s", f.payload)
		}
		if err != nil {
			c.fail(err)
			return
		}
		var recvNs int64
		if f.kind&OpTraceFlag != 0 {
			// Traced replies carry a span block; stamp receive time here —
			// before pipeline dispatch — so the client-side close of the
			// span excludes the waiter's scheduling delay.
			recvNs = time.Now().UnixNano()
		}
		c.mu.Lock()
		call := c.pending[f.id]
		delete(c.pending, f.id)
		c.mu.Unlock()
		if call != nil {
			call.f = f
			call.recvNs = recvNs
			call.done <- call
		}
	}
}

// fail marks the client dead and completes every pending call with err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		if errors.Is(err, net.ErrClosed) {
			err = ErrClientClosed
		}
		c.err = err
	}
	stranded := c.pending
	c.pending = make(map[uint64]*call)
	err = c.err
	c.mu.Unlock()
	for _, call := range stranded {
		call.err = err
		call.done <- call
	}
}

// start registers a new call and queues its request frame (without
// writing it — see flush).
func (c *Client) start(op byte, payload []byte, done chan *call, tag any) (*call, error) {
	return c.startParts(op, done, tag, payload)
}

// register enters cl into the pending table under a fresh id.
func (c *Client) register(cl *call) (uint64, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, err
	}
	c.nextID++ // ids start at 1; id 0 is reserved for connection errors
	id := c.nextID
	c.pending[id] = cl
	c.mu.Unlock()
	return id, nil
}

// startParts is start with the request payload in pieces: the parts are
// appended to the connection's pending frames, so pipelined senders pay no
// per-frame encode allocation — a trace stamp or queue-id prefix can live
// in a caller's stack array. It fails only on a dead client; a failed
// write reaches the call through fail (see flush).
func (c *Client) startParts(op byte, done chan *call, tag any, parts ...[]byte) (*call, error) {
	cl := getCall(done, tag)
	id, err := c.register(cl)
	if err != nil {
		putCall(cl)
		return nil, err
	}
	c.wmu.Lock()
	c.out = appendFrame(c.out, id, op, parts...)
	c.wmu.Unlock()
	return cl, nil
}

// startBatch is startParts for batch-encoded requests: prefix (trace
// stamp and/or queue id, possibly empty) then the batch encoding of vals,
// all built in the pending frames — the callers' equivalent of the
// server's batchFrame, avoiding encodeBatch's intermediate allocation.
// The call completes on its private channel (see roundTripBatch).
func (c *Client) startBatch(op byte, prefix []byte, vals [][]byte) (*call, error) {
	cl := getCall(nil, nil)
	id, err := c.register(cl)
	if err != nil {
		putCall(cl)
		return nil, err
	}
	n := frameHeader + len(prefix) + encodedBatchSize(vals)
	c.wmu.Lock()
	buf := c.out
	var hdr [4 + frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12] = op
	buf = append(buf, hdr[:]...)
	buf = append(buf, prefix...)
	var word [4]byte
	binary.BigEndian.PutUint32(word[:], uint32(len(vals)))
	buf = append(buf, word[:]...)
	for _, v := range vals {
		binary.BigEndian.PutUint32(word[:], uint32(len(v)))
		buf = append(buf, word[:]...)
		buf = append(buf, v...)
	}
	c.out = buf
	c.wmu.Unlock()
	return cl, nil
}

// flush gets the pending frames onto the wire, one writer at a time: a
// flush that finds a writer active, or nothing pending, returns at once,
// because the active writer ships those frames. The writer yields once
// before its first write so that callers already runnable queue their
// frames behind it — at GOMAXPROCS 1 nobody else runs during the syscall,
// so without the yield nothing would coalesce — then writes until nothing
// is pending. A failed write fails the whole client with its error, which
// completes every call whose frame it lost.
func (c *Client) flush() error {
	c.wmu.Lock()
	if c.writing || len(c.out) == 0 {
		c.wmu.Unlock()
		return nil
	}
	c.writing = true
	c.wmu.Unlock()
	runtime.Gosched()
	var err error
	c.wmu.Lock()
	for len(c.out) > 0 && err == nil {
		// The buffer being written must never share a backing array with
		// out: spare is cleared as out takes it over, and the written buffer
		// becomes the next spare up to the client's frame cap. Callers pile
		// a burst into out during the syscall and nothing spills it, so a
		// buffer dropped here would be regrown by doubling for the next
		// burst.
		buf := c.out
		c.out, c.spare = c.spare[:0], nil
		c.wmu.Unlock()
		_, err = c.conn.Write(buf)
		c.wmu.Lock()
		if cap(buf) <= c.maxFrame {
			c.spare = buf[:0]
		}
	}
	c.writing = false
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
		c.conn.Close()
	}
	return err
}

// wait gets a started call's frame written and blocks until the call
// completes, then recycles it: the reply frame (whose payload the caller
// may keep — reply payloads are never pooled on the client) and the read
// loop's receive stamp are copied out first. It takes start's results, so
// a failed start passes straight through.
func (c *Client) wait(cl *call, err error) (frame, int64, error) {
	if err != nil {
		return frame{}, 0, err
	}
	_ = c.flush() // a failed write completes cl with its error through fail
	<-cl.done
	f, recvNs, err := cl.f, cl.recvNs, cl.err // a failed call has neither frame nor stamp
	putCall(cl)
	return f, recvNs, err
}

// roundTrip issues one request synchronously.
func (c *Client) roundTrip(op byte, payload []byte) (frame, error) {
	return c.roundTripParts(op, payload)
}

// roundTripParts issues one request synchronously from payload parts.
func (c *Client) roundTripParts(op byte, parts ...[]byte) (frame, error) {
	f, _, err := c.wait(c.startParts(op, nil, nil, parts...))
	return f, err
}

// roundTripBatch issues one batch-encoded request synchronously (see
// startBatch).
func (c *Client) roundTripBatch(op byte, prefix []byte, vals [][]byte) (frame, error) {
	f, _, err := c.wait(c.startBatch(op, prefix, vals))
	return f, err
}

// statusErr maps non-OK reply statuses shared by all ops to errors.
func statusErr(f frame) error {
	switch f.kind {
	case StatusBusy:
		return ErrBusy
	case StatusClosed:
		return ErrClosedQueue
	case StatusErr:
		return fmt.Errorf("server: %s", f.payload)
	default:
		return fmt.Errorf("server: unexpected reply status 0x%02x", f.kind)
	}
}

// Enqueue appends v to the remote default queue (routed to the session's
// home shard, so one client's enqueues stay FIFO-ordered). Values that
// cannot fit a reply frame — including the batch reply's 8-byte overhead,
// so any enqueued value remains deliverable to batch dequeuers — are
// rejected locally: sending one would only get a server-side rejection
// anyway.
func (c *Client) Enqueue(v []byte) error { return c.enqueue(0, v) }

// errValueTooLarge rejects an enqueue value locally before it is sent:
// the server would only reject it anyway (see enqueueFits).
func errValueTooLarge(n, maxFrame int) error {
	return fmt.Errorf("%w: %d-byte value exceeds the %d-byte frame cap (less batch reply headroom)",
		ErrFrameTooLarge, n, maxFrame)
}

func (c *Client) enqueue(qid uint32, v []byte) error {
	if len(v)+frameHeader+batchReplyOverhead > c.maxFrame {
		return errValueTooLarge(len(v), c.maxFrame)
	}
	var f frame
	var err error
	if qid != 0 {
		var q [queueIDLen]byte
		binary.BigEndian.PutUint32(q[:], qid)
		f, err = c.roundTripParts(OpEnqueueQ, q[:], v)
	} else {
		f, err = c.roundTripParts(OpEnqueue, v)
	}
	if err != nil {
		return err
	}
	if f.kind != StatusOK {
		return statusErr(f)
	}
	return nil
}

// EnqueueBatch appends all of vs to the remote fabric as one wire frame
// and one multi-op fabric batch: the frame's values are installed in a
// single leaf block of the session's home shard, so they stay contiguous
// in FIFO order and the tree walk is paid once for the whole batch.
// Enqueueing is all-or-nothing (ErrClosedQueue rejects the entire batch).
// The encoded batch must fit the frame cap; oversized batches are rejected
// locally — split them instead of raising the cap blindly, the server
// enforces its own limit.
func (c *Client) EnqueueBatch(vs [][]byte) error { return c.enqueueBatch(0, vs) }

func (c *Client) enqueueBatch(qid uint32, vs [][]byte) error {
	if len(vs) == 0 {
		return nil
	}
	prefix := 0
	if qid != 0 {
		prefix = queueIDLen // qualified frames spend 4 payload bytes on the queue id
	}
	if encodedBatchSize(vs)+frameHeader+prefix > c.maxFrame {
		return fmt.Errorf("%w: %d-byte batch exceeds the %d-byte frame cap",
			ErrFrameTooLarge, encodedBatchSize(vs), c.maxFrame)
	}
	var f frame
	var err error
	if qid != 0 {
		var q [queueIDLen]byte
		binary.BigEndian.PutUint32(q[:], qid)
		f, err = c.roundTripBatch(OpEnqueueBatchQ, q[:], vs)
	} else {
		f, err = c.roundTripBatch(OpEnqueueBatch, nil, vs)
	}
	if err != nil {
		return err
	}
	if f.kind != StatusOK {
		return statusErr(f)
	}
	return nil
}

// DequeueBatch removes up to n elements from the remote fabric with one
// wire round trip. An empty (nil) result with a nil error means the fabric
// certified empty. The server may return fewer than n values even when
// more exist, if shipping them would exceed the frame cap; it holds the
// overflow for this session's next dequeue, so simply call again.
func (c *Client) DequeueBatch(n int) ([][]byte, error) { return c.dequeueBatch(0, n) }

func (c *Client) dequeueBatch(qid uint32, n int) ([][]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	var req [queueIDLen + 4]byte
	binary.BigEndian.PutUint32(req[queueIDLen:], uint32(min(n, MaxBatchOps)))
	var f frame
	var err error
	if qid != 0 {
		binary.BigEndian.PutUint32(req[:queueIDLen], qid)
		f, err = c.roundTripParts(OpDequeueBatchQ, req[:])
	} else {
		f, err = c.roundTripParts(OpDequeueBatch, req[queueIDLen:])
	}
	if err != nil {
		return nil, err
	}
	switch f.kind {
	case StatusOK:
		return decodeBatch(f.payload)
	case StatusEmpty:
		return nil, nil
	default:
		return nil, statusErr(f)
	}
}

// Dequeue removes an element from the remote default queue. ok is false
// when the fabric certified empty at the server.
func (c *Client) Dequeue() ([]byte, bool, error) { return c.dequeue(0) }

func (c *Client) dequeue(qid uint32) ([]byte, bool, error) {
	var f frame
	var err error
	if qid != 0 {
		var q [queueIDLen]byte
		binary.BigEndian.PutUint32(q[:], qid)
		f, err = c.roundTripParts(OpDequeueQ, q[:])
	} else {
		f, err = c.roundTripParts(OpDequeue)
	}
	if err != nil {
		return nil, false, err
	}
	switch f.kind {
	case StatusOK:
		return f.payload, true, nil
	case StatusEmpty:
		return nil, false, nil
	default:
		return nil, false, statusErr(f)
	}
}

// Len returns the default queue's backlog estimate.
func (c *Client) Len() (int, error) { return c.length(0) }

func (c *Client) length(qid uint32) (int, error) {
	var f frame
	var err error
	if qid != 0 {
		var q [queueIDLen]byte
		binary.BigEndian.PutUint32(q[:], qid)
		f, err = c.roundTripParts(OpLenQ, q[:])
	} else {
		f, err = c.roundTripParts(OpLen)
	}
	if err != nil {
		return 0, err
	}
	if f.kind != StatusOK {
		return 0, statusErr(f)
	}
	if len(f.payload) != 8 {
		return 0, fmt.Errorf("%w: len payload %d bytes", ErrBadFrame, len(f.payload))
	}
	return int(binary.BigEndian.Uint64(f.payload)), nil
}

// Stats returns the server's Snapshot as raw JSON (the same document the
// /statsz endpoint serves).
func (c *Client) Stats() ([]byte, error) {
	f, err := c.roundTrip(OpStats, nil)
	if err != nil {
		return nil, err
	}
	if f.kind != StatusOK {
		return nil, statusErr(f)
	}
	return f.payload, nil
}

// Open binds this client to the named queue, creating the queue on first
// use (each named queue is its own server-side sharded fabric, so its
// FIFO and conservation guarantees are exactly the single-queue ones).
// The returned NamedQueue shares this client's connection and session;
// its operations ride the same pipeline as the client's default-queue
// operations. Opening the reserved name "default" binds queue 0.
func (c *Client) Open(name string) (*NamedQueue, error) {
	if len(name) == 0 || len(name) > MaxQueueName {
		return nil, fmt.Errorf("server: queue name must be 1..%d bytes (got %d)", MaxQueueName, len(name))
	}
	f, err := c.roundTrip(OpOpen, []byte(name))
	if err != nil {
		return nil, err
	}
	if f.kind != StatusOK {
		return nil, statusErr(f)
	}
	if len(f.payload) != queueIDLen {
		return nil, fmt.Errorf("%w: open reply payload %d bytes, want %d", ErrBadFrame, len(f.payload), queueIDLen)
	}
	return &NamedQueue{c: c, id: binary.BigEndian.Uint32(f.payload), name: name}, nil
}

// Delete removes the named queue from the server: the name disappears at
// once (a subsequent Open creates a fresh queue), its fabric is closed,
// and values still inside are dropped — deletion is explicit data loss,
// exactly like closing a local fabric that still holds elements. The
// default queue cannot be deleted.
func (c *Client) Delete(name string) error {
	f, err := c.roundTrip(OpDelete, []byte(name))
	if err != nil {
		return err
	}
	if f.kind != StatusOK {
		return statusErr(f)
	}
	return nil
}

// NamedQueue is a client-side binding to one named queue, obtained with
// Client.Open. It shares the parent client's connection: methods are safe
// for concurrent use and pipeline with other requests on the same
// session. All enqueues through one NamedQueue stay FIFO-ordered among
// themselves (one session leases one handle per queue, and a handle's
// enqueues all route to its home shard).
type NamedQueue struct {
	c    *Client
	id   uint32
	name string
}

// ID returns the server-assigned queue id. Ids are never reused within a
// server's lifetime: after a Delete, a stale id fails with an "unknown
// queue" error instead of touching a new tenant's data.
func (q *NamedQueue) ID() uint32 { return q.id }

// Name returns the queue's name.
func (q *NamedQueue) Name() string { return q.name }

// Enqueue appends v to the named queue.
func (q *NamedQueue) Enqueue(v []byte) error { return q.c.enqueue(q.id, v) }

// EnqueueBatch appends all of vs to the named queue as one wire frame and
// one multi-op fabric batch (all-or-nothing, like Client.EnqueueBatch).
func (q *NamedQueue) EnqueueBatch(vs [][]byte) error { return q.c.enqueueBatch(q.id, vs) }

// Dequeue removes an element from the named queue. ok is false when its
// fabric certified empty at the server.
func (q *NamedQueue) Dequeue() ([]byte, bool, error) { return q.c.dequeue(q.id) }

// DequeueBatch removes up to n elements from the named queue with one
// wire round trip, with the same frame-cap overflow contract as
// Client.DequeueBatch.
func (q *NamedQueue) DequeueBatch(n int) ([][]byte, error) { return q.c.dequeueBatch(q.id, n) }

// Len returns the named queue's backlog estimate.
func (q *NamedQueue) Len() (int, error) { return q.c.length(q.id) }

// Delete removes this queue from the server (see Client.Delete).
func (q *NamedQueue) Delete() error { return q.c.Delete(q.name) }
