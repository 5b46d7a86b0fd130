// Package server turns the sharded queue fabric into a network service.
//
// The paper's central trick — amortizing contention by propagating batches
// of operations through the tree instead of one at a time — is applied here
// one layer up: each connection's goroutine coalesces pipelined client
// requests into a single pass over the leased fabric handle and a single
// socket flush, so a round-trip's fixed costs (syscalls, scheduling) are
// paid once per batch rather than once per operation.
//
// Four pieces make up the service:
//
//   - A length-prefixed binary wire protocol (this file) carrying
//     Enqueue/Dequeue/Len/Stats/Open/Delete requests and their replies,
//     each tagged with a client-chosen id so requests can be pipelined
//     and replies matched out of band. Data opcodes come in two flavors:
//     unqualified (targeting the default queue 0, wire-compatible with
//     pre-namespace clients) and queue-qualified (the payload leads with
//     a uint32 queue id from OPEN).
//   - A queue namespace (namespace.go): named queues inside one server,
//     created on first OPEN — each a full sharded fabric of its own, so
//     naming multiplies queues without weakening any per-queue guarantee
//     — deleted explicitly or torn down when idle and empty.
//   - A session manager (session.go): every accepted connection leases
//     fabric handles from the dynamic registries per (connection, queue)
//     — the default queue's at accept, named queues' on first use, all
//     released at teardown — and is reaped when idle, so a dead client
//     cannot pin handle slots forever.
//   - One goroutine per connection (server.go): it reads a window of at
//     most W frames — one blocking read, then the frames that have begun
//     to arrive in its read buffer — executes it, and writes the replies
//     before it reads again, so overload waits in the socket as TCP
//     backpressure rather than in server memory. Each window is executed
//     by the one data path there is (run.go): adjacent data frames of one
//     direction and queue form a run, and a run is one fabric batch call.
//
// Client (client.go) and open-loop load generator (loadgen.go) speak the
// same protocol; Serve/Dial are re-exported at the repository root.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// Wire format: every message, in both directions, is one frame
//
//	uint32 length   big-endian, length of the rest of the frame (id + kind + payload)
//	uint64 id       client-chosen request id, echoed verbatim in the reply
//	uint8  kind     request opcode or response status
//	[]byte payload  kind-dependent
//
// Requests and responses draw kinds from disjoint ranges so a stray frame
// read in the wrong direction fails loudly instead of being misparsed.
const (
	// Request opcodes (client to server).
	OpEnqueue byte = 0x01 // payload: the value bytes
	OpDequeue byte = 0x02 // no payload
	OpLen     byte = 0x03 // no payload
	OpStats   byte = 0x04 // no payload

	// Batch opcodes: one frame carries a whole multi-op batch, which the
	// server hands to the fabric as a single multi-op leaf block.
	OpEnqueueBatch byte = 0x05 // payload: count-prefixed values (see "Batch payload layout")
	OpDequeueBatch byte = 0x06 // payload: uint32 max element count

	// Namespace opcodes: named queues inside one server process. OpOpen
	// creates the named queue on first use (each named queue is its own
	// sharded fabric) and replies with its uint32 queue id; OpDelete
	// removes it and closes its fabric. The default queue — the fabric the
	// server was started with — has the reserved id 0 and the reserved
	// name "default"; it cannot be deleted.
	OpOpen   byte = 0x07 // payload: queue name (1..MaxQueueName bytes); reply: uint32 queue id
	OpDelete byte = 0x08 // payload: queue name

	// OpQueueFlag marks the queue-qualified variant of a data opcode: the
	// payload begins with the uint32 queue id returned by OpOpen, followed
	// by the base opcode's payload. Unqualified opcodes keep their pre-
	// namespace meaning — they target the default queue 0 — so clients
	// that predate the namespace interoperate unchanged.
	OpQueueFlag byte = 0x10

	// Queue-qualified data opcodes (base opcode | OpQueueFlag).
	OpEnqueueQ      = OpEnqueue | OpQueueFlag      // 0x11: uint32 queue id + value bytes
	OpDequeueQ      = OpDequeue | OpQueueFlag      // 0x12: uint32 queue id
	OpLenQ          = OpLen | OpQueueFlag          // 0x13: uint32 queue id
	OpEnqueueBatchQ = OpEnqueueBatch | OpQueueFlag // 0x15: uint32 queue id + count-prefixed values
	OpDequeueBatchQ = OpDequeueBatch | OpQueueFlag // 0x16: uint32 queue id + uint32 max element count

	// OpTraceFlag marks the traced variant of a data opcode: the client asks
	// the server to record per-stage timestamps for this one frame and ship
	// them back in the reply. A traced request's payload begins with the
	// client's own send timestamp (int64 unix nanoseconds, the client's
	// clock), before any queue-id prefix; the flag composes with OpQueueFlag
	// (trace is stripped first, so ENQ|TRACE|QUEUE = 0x31 decodes as a
	// qualified traced enqueue). Only the four data opcodes that move values
	// are traceable — Enqueue, Dequeue, EnqueueBatch, DequeueBatch and their
	// qualified variants; any other flag-bearing byte stays unknown and is
	// rejected per request. Old clients never set the bit, old servers
	// reject it with a request-scoped ERR, so the flag is wire-compatible
	// in both directions.
	//
	// A successful reply to a traced request carries the same flag on its
	// status byte (StatusOK|OpTraceFlag = 0xA0, StatusEmpty|OpTraceFlag =
	// 0xA1) and prefixes the normal reply payload with a span block: five
	// int64 unix-nano stamps on the server's clock — socket read, window
	// admit, fabric call start, fabric call end, reply write (see
	// writeReply). Error and closed replies stay plain, as does
	// every reply from a server running with observability off — the client
	// treats a plain status to a traced request as "server declined to
	// sample" and still completes the call normally.
	OpTraceFlag byte = 0x20

	// Response statuses (server to client).
	StatusOK     byte = 0x80 // payload: dequeue value / 8-byte length / stats JSON
	StatusEmpty  byte = 0x81 // dequeue: fabric certified empty
	StatusBusy   byte = 0x82 // reserved; not sent (older servers answered a window overflow with it)
	StatusClosed byte = 0x83 // enqueue: queue closed
	StatusErr    byte = 0x84 // payload: error message
)

// Frame geometry.
const (
	frameHeader = 8 + 1 // id + kind, after the length prefix

	// DefaultMaxFrame bounds a frame's encoded size (and so an enqueued
	// value's size). It exists so one malformed or hostile length prefix
	// cannot make the peer allocate gigabytes.
	DefaultMaxFrame = 1 << 20

	// MaxBatchOps caps the element count of one OpDequeueBatch request.
	// Enqueue batches are implicitly capped by the frame size; a dequeue
	// batch request is 4 bytes however large its count, so without this cap
	// a hostile frame could demand a multi-gigabyte reply reservation.
	MaxBatchOps = 1 << 16

	// MaxQueueName caps a queue name's length in bytes. Names travel in
	// OpOpen/OpDelete payloads and in /statsz JSON; the cap keeps a hostile
	// client from parking megabytes in the namespace table.
	MaxQueueName = 255

	// queueIDLen is the size of the queue-id prefix a qualified opcode
	// carries (see OpQueueFlag).
	queueIDLen = 4

	// traceStampLen is the size of the client send-timestamp prefix a
	// traced request carries (see OpTraceFlag).
	traceStampLen = 8

	// traceBlockLen is the size of the span block prefixed to a traced
	// reply's payload: five int64 server-clock stamps (read, admit, fabric
	// start, fabric end, reply write).
	traceBlockLen = 5 * 8

	// batchReplyOverhead is the batch encoding's cost for shipping a lone
	// value: the count word plus the value's length word. Every value
	// admitted into the fabric must satisfy len <= maxFrame - frameHeader -
	// batchReplyOverhead (enforced at enqueue on both sides), so any value
	// a dequeue pulls out can always be shipped in a batch reply — without
	// this invariant a value within 8 bytes of the cap would fit its single
	// OpEnqueue frame but no DEQ_BATCH reply, and batch consumers would be
	// told "empty" forever while it sat in the session stash.
	batchReplyOverhead = 4 + 4
)

// Protocol-level errors.
var (
	ErrFrameTooLarge = errors.New("server: frame exceeds maximum size")
	ErrBadFrame      = errors.New("server: malformed frame")
)

// frame is one decoded wire message. at is the unix-nano timestamp the
// server stamped when it pulled the frame off the socket (0 when
// observability is off); it becomes the frame's in-server latency sample
// at reply time.
type frame struct {
	id      uint64
	kind    byte
	payload []byte
	at      int64
}

// appendFrame appends one encoded frame — length prefix, id, kind, then
// the payload parts in order — to dst and returns the extended slice. It
// is the single frame encoder behind both sides' write paths: the parts
// are copied, so callers may reuse their buffers (stack prefix arrays,
// value scratch) the moment it returns.
func appendFrame(dst []byte, id uint64, kind byte, parts ...[]byte) []byte {
	n := frameHeader
	for _, p := range parts {
		n += len(p)
	}
	var hdr [4 + frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12] = kind
	dst = append(dst, hdr[:]...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// AppendWireFrame is appendFrame for callers outside the package that
// speak the raw wire format — the benchmark harness's zero-allocation
// drivers preencode request bursts with it.
func AppendWireFrame(dst []byte, id uint64, kind byte, parts ...[]byte) []byte {
	return appendFrame(dst, id, kind, parts...)
}

// frameWriter is the server's reply egress: replies append into one
// per-session scratch buffer and the session pushes the whole
// window's bytes with a single sized socket write, so frames-per-syscall
// scales with the drained window.
type frameWriter struct {
	w   io.Writer
	buf []byte

	// held lists the dequeued values whose replies sit in buf, each with
	// the binding it came from and the end of its reply in buf.
	held []heldValue
	// dequeues is the server's count of values delivered by dequeue
	// replies; a value handed back leaves it again.
	dequeues *atomic.Int64
}

type heldValue struct {
	b   *binding
	v   []byte
	end int
}

// hold records that the reply just appended to buf carries vals from b.
// The write that takes the reply whole recycles them; a write that fails
// first hands them back to b, because the peer never got them.
func (fw *frameWriter) hold(b *binding, vals [][]byte) {
	for _, v := range vals {
		fw.held = append(fw.held, heldValue{b, v, len(fw.buf)})
	}
}

const (
	// fwSpill bounds the scratch mid-window: a window whose replies
	// outgrow it is written out in more than one syscall rather than
	// buffering without bound (batch dequeue replies can reach the frame
	// cap each).
	fwSpill = 32 << 10
	// fwRetain caps the capacity kept across flushes; a rare giant window
	// must not pin its scratch forever.
	fwRetain = 64 << 10
)

// spill writes the buffered bytes out early when the scratch has outgrown
// its bound. A failed spill poisons the connection exactly like a failed
// flush — the caller's reply is reported undelivered.
func (fw *frameWriter) spill() error {
	if len(fw.buf) < fwSpill {
		return nil
	}
	return fw.flush()
}

// frame appends one reply frame built from parts (see appendFrame).
func (fw *frameWriter) frame(id uint64, kind byte, parts ...[]byte) error {
	if err := fw.spill(); err != nil {
		return err
	}
	fw.buf = appendFrame(fw.buf, id, kind, parts...)
	return nil
}

// batchFrame appends one batch-reply frame: an optional span-block prefix,
// the count word, then each value length-prefixed — encoded directly into
// the scratch, no intermediate payload buffer.
func (fw *frameWriter) batchFrame(id uint64, kind byte, span []byte, vals [][]byte) error {
	if err := fw.spill(); err != nil {
		return err
	}
	n := frameHeader + len(span) + encodedBatchSize(vals)
	var hdr [4 + frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12] = kind
	fw.buf = append(fw.buf, hdr[:]...)
	fw.buf = append(fw.buf, span...)
	var word [4]byte
	binary.BigEndian.PutUint32(word[:], uint32(len(vals)))
	fw.buf = append(fw.buf, word[:]...)
	for _, v := range vals {
		binary.BigEndian.PutUint32(word[:], uint32(len(v)))
		fw.buf = append(fw.buf, word[:]...)
		fw.buf = append(fw.buf, v...)
	}
	return nil
}

// flush writes the buffered reply bytes in one socket write and resets the
// scratch, retaining up to fwRetain of capacity. The held values whose
// replies the write took whole are recycled. The rest go back to the front
// of their bindings' stashes, each binding's in order and with one shift,
// and leave the delivered counts that dequeueRun added them to.
func (fw *frameWriter) flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	n, err := fw.w.Write(fw.buf)
	k := 0
	for ; k < len(fw.held) && fw.held[k].end <= n; k++ {
		putBuf(fw.held[k].v)
	}
	if k < len(fw.held) {
		back := make(map[*binding][][]byte)
		for _, h := range fw.held[k:] {
			back[h.b] = append(back[h.b], h.v)
		}
		for b, vs := range back {
			b.unconsume(vs)
			b.t.dequeues.Add(-int64(len(vs)))
		}
		fw.dequeues.Add(-int64(len(fw.held) - k))
	}
	clear(fw.held)
	fw.held = fw.held[:0]
	if cap(fw.buf) > fwRetain {
		fw.buf = make([]byte, 0, fwRetain)
	} else {
		fw.buf = fw.buf[:0]
	}
	return err
}

// readHeader reads one frame's length prefix, id and kind, and returns the
// frame with how many payload bytes follow.
func readHeader(r *bufio.Reader, maxFrame int) (frame, int, error) {
	// The header is parsed in place from the bufio window (Peek/Discard)
	// rather than copied into a local array: a local passed to io.ReadFull
	// escapes through the io.Reader interface, costing one heap allocation
	// per frame — on the hot path, for 13 bytes.
	hdr, err := r.Peek(4)
	if err != nil {
		return frame{}, 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < frameHeader {
		return frame{}, 0, fmt.Errorf("%w: length %d below header size", ErrBadFrame, n)
	}
	if int(n) > maxFrame {
		return frame{}, 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	r.Discard(4)
	if hdr, err = r.Peek(frameHeader); err != nil {
		return frame{}, 0, err
	}
	f := frame{
		id:   binary.BigEndian.Uint64(hdr[:8]),
		kind: hdr[8],
	}
	r.Discard(frameHeader)
	return f, int(n) - frameHeader, nil
}

// readFrame reads one frame from r into a freshly allocated payload that
// escapes to the caller: the client's reader, whose callers keep the
// values. Payload-free frames (acks, polls) allocate nothing.
func readFrame(r *bufio.Reader, maxFrame int) (frame, error) {
	f, m, err := readHeader(r, maxFrame)
	if err != nil || m == 0 {
		return f, err
	}
	f.payload = make([]byte, m)
	if _, err := io.ReadFull(r, f.payload); err != nil {
		return frame{}, err
	}
	return f, nil
}

// readFramePooled is the server ingress: the payload is decoded into a
// pooled buffer, which the session recycles (putBuf(f.payload)) once
// the frame's window is processed — by then every enqueue payload has been
// copied out at admit time and every reply byte copied into the egress
// scratch, so the body is dead.
func readFramePooled(r *bufio.Reader, maxFrame int) (frame, error) {
	f, m, err := readHeader(r, maxFrame)
	if err != nil || m == 0 {
		return f, err
	}
	f.payload = getBuf(m)
	if _, err := io.ReadFull(r, f.payload); err != nil {
		putBuf(f.payload)
		return frame{}, err
	}
	return f, nil
}

// decoded is a request frame with its queue addressing and trace context
// resolved: the base opcode (trace and queue flags stripped), the target
// queue id (0 for unqualified opcodes), and the payload with any trace and
// queue-id prefixes removed.
type decoded struct {
	op     byte   // base opcode
	qid    uint32 // target queue id; 0 is the default queue
	rest   []byte // payload after the trace-stamp and queue-id prefixes, if any
	bad    bool   // a frame too short to carry its declared prefixes
	traced bool   // the client set OpTraceFlag on a traceable data opcode
	sendNs int64  // the traced frame's client send stamp (client clock)

	// The executor's per-frame outcome within a run (run.go), zero as
	// decoded: n is how many values the frame moves — admitted by an
	// enqueue, asked for and then shipped by a dequeue — and err, when set,
	// is why the frame was not served: its own StatusErr, or the closed
	// queue's refusal of the run that admitted it.
	n   int
	err error
}

// decodeOp resolves a frame's trace context and queue addressing. The
// trace flag is stripped first (consuming the 8-byte client send stamp),
// then the queue flag (consuming the uint32 queue-id prefix); unqualified
// opcodes target queue 0. Only the defined traced and qualified opcodes
// are rewritten — any other flag-bearing byte (0x14, 0x17, 0x23, ...)
// passes through untouched so it is rejected as unknown rather than
// silently aliasing a defined op. Response-range bytes (>= 0x80) also
// pass through untouched and are rejected as unknown.
func decodeOp(f frame) decoded {
	d := decoded{op: f.kind, rest: f.payload}
	if d.op&OpTraceFlag != 0 && d.op < StatusOK {
		switch d.op &^ OpTraceFlag {
		case OpEnqueue, OpDequeue, OpEnqueueBatch, OpDequeueBatch,
			OpEnqueueQ, OpDequeueQ, OpEnqueueBatchQ, OpDequeueBatchQ:
		default:
			return d // unknown opcode; rejected by the executor
		}
		if len(d.rest) < traceStampLen {
			d.bad = true
			return d
		}
		d.op &^= OpTraceFlag
		d.traced = true
		d.sendNs = int64(binary.BigEndian.Uint64(d.rest[:traceStampLen]))
		d.rest = d.rest[traceStampLen:]
	}
	switch d.op {
	case OpEnqueueQ, OpDequeueQ, OpLenQ, OpEnqueueBatchQ, OpDequeueBatchQ:
	default:
		return d
	}
	d.op &^= OpQueueFlag
	if len(d.rest) < queueIDLen {
		d.bad = true
		return d
	}
	d.qid = binary.BigEndian.Uint32(d.rest[:queueIDLen])
	d.rest = d.rest[queueIDLen:]
	return d
}

// splitTracedReply is the client side of writeReply's traced form: given a reply
// frame, it strips the trace flag and span block if present, returning the
// normalized frame, the five server stamps, and whether the server
// actually sampled the request. A plain reply (server tracing off, or an
// error path) passes through with sampled=false; a flagged reply too
// short for its span block is malformed.
func splitTracedReply(f frame) (frame, [5]int64, bool, error) {
	var stamps [5]int64
	if f.kind < StatusOK || f.kind&OpTraceFlag == 0 {
		return f, stamps, false, nil
	}
	if len(f.payload) < traceBlockLen {
		return f, stamps, false, fmt.Errorf("%w: traced reply %d bytes below span block", ErrBadFrame, len(f.payload))
	}
	for i := range stamps {
		stamps[i] = int64(binary.BigEndian.Uint64(f.payload[i*8:]))
	}
	f.kind &^= OpTraceFlag
	f.payload = f.payload[traceBlockLen:]
	if len(f.payload) == 0 {
		f.payload = nil
	}
	return f, stamps, true, nil
}

// Batch payload layout (OpEnqueueBatch requests and OpDequeueBatch StatusOK
// replies): uint32 count, then count x (uint32 length, value bytes), all
// big-endian. The layout is capped by the frame size like any other
// payload, so neither side ever allocates beyond its configured maxFrame.

// encodedBatchSize returns the payload size of a count-prefixed batch.
func encodedBatchSize(vals [][]byte) int {
	n := 4
	for _, v := range vals {
		n += 4 + len(v)
	}
	return n
}

// decodeBatch parses a count-prefixed batch payload into values that alias
// it. It is the client's decoder: the client owns each reply payload
// outright (readFrame allocates it fresh) and hands the values to its
// caller, so aliasing is both safe and the cheapest thing to do. The
// server cannot use it — its payloads are pooled frame bodies recycled
// after the window — and decodes with decodeBatchPooled, which copies.
// The two differ in ownership, not in what they accept: FuzzFrame holds
// them to the same verdict on every input.
func decodeBatch(payload []byte) ([][]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: batch payload %d bytes", ErrBadFrame, len(payload))
	}
	count := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	// Every entry needs at least its 4-byte length, so a count beyond
	// len(payload)/4 is malformed however the rest parses.
	if count > uint32(len(payload)/4) {
		return nil, fmt.Errorf("%w: batch count %d exceeds payload", ErrBadFrame, count)
	}
	vals := make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(payload) < 4 {
			return nil, fmt.Errorf("%w: truncated batch entry %d", ErrBadFrame, i)
		}
		n := binary.BigEndian.Uint32(payload[:4])
		payload = payload[4:]
		if uint64(n) > uint64(len(payload)) {
			return nil, fmt.Errorf("%w: batch entry %d length %d exceeds payload", ErrBadFrame, i, n)
		}
		vals = append(vals, payload[:n:n])
		payload = payload[n:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrBadFrame, len(payload))
	}
	return vals, nil
}

// decodeBatchPooled parses a count-prefixed batch payload, copying every
// value into its own pooled buffer and appending them to dst (see
// decodeBatch for why there are two decoders). Nothing in the result
// aliases payload — the frame body can be recycled the moment the window is
// processed, and each value's storage recycles independently when its
// dequeue reply ships. On a parse error the copies already made are
// returned to the pool and the original dst is handed back unchanged.
func decodeBatchPooled(payload []byte, dst [][]byte) ([][]byte, error) {
	base := len(dst)
	fail := func(err error) ([][]byte, error) {
		for _, v := range dst[base:] {
			putBuf(v)
		}
		return dst[:base], err
	}
	if len(payload) < 4 {
		return fail(fmt.Errorf("%w: batch payload %d bytes", ErrBadFrame, len(payload)))
	}
	count := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	if count > uint32(len(payload)/4) {
		return fail(fmt.Errorf("%w: batch count %d exceeds payload", ErrBadFrame, count))
	}
	if need := base + int(count); cap(dst) < need {
		grown := make([][]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i := uint32(0); i < count; i++ {
		if len(payload) < 4 {
			return fail(fmt.Errorf("%w: truncated batch entry %d", ErrBadFrame, i))
		}
		n := binary.BigEndian.Uint32(payload[:4])
		payload = payload[4:]
		if uint64(n) > uint64(len(payload)) {
			return fail(fmt.Errorf("%w: batch entry %d length %d exceeds payload", ErrBadFrame, i, n))
		}
		dst = append(dst, copyBuf(payload[:n]))
		payload = payload[n:]
	}
	if len(payload) != 0 {
		return fail(fmt.Errorf("%w: %d trailing bytes after batch", ErrBadFrame, len(payload)))
	}
	return dst, nil
}
