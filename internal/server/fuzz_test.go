package server

// Wire-protocol robustness: FuzzFrame drives arbitrary bytes through the
// pure parsing layers (frame framing, opcode/prefix resolution, batch
// codec, traced-reply splitting), which must reject malformed input with
// errors — never a panic, hang, or unbounded allocation. The companion
// live-server test replays the malformed seed corpus over real TCP and
// checks the server answers each with a request-scoped ERR or a clean
// connection teardown, stays fully serviceable afterwards, and leaks no
// goroutines.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/shard"
)

// fuzzMaxFrame keeps the fuzzer from spending its budget allocating huge
// well-formed frames; the framing logic is identical at any cap.
const fuzzMaxFrame = 1 << 16

// rawFrame builds a wire frame (length prefix included) by hand so seeds
// can lie about lengths in ways writeFrame never would.
func rawFrame(id uint64, kind byte, payload []byte) []byte {
	buf := make([]byte, 4+frameHeader+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(frameHeader+len(payload)))
	binary.BigEndian.PutUint64(buf[4:12], id)
	buf[12] = kind
	copy(buf[13:], payload)
	return buf
}

// malformedSeeds is the checked-in seed corpus: every frame shape the
// parser must reject (or survive), including the traced-flag and
// queue-qualified truncations called out in the protocol comments.
func malformedSeeds() map[string][]byte {
	qidPrefix := []byte{0, 0, 0, 7}
	stamp := bytes.Repeat([]byte{0x11}, traceStampLen)
	return map[string][]byte{
		"empty":          {},
		"shortLenPrefix": {0x00, 0x00},
		// Declared length below the id+kind header.
		"lengthBelowHeader": {0x00, 0x00, 0x00, 0x05, 1, 2, 3, 4, 5},
		// Hostile length prefix far beyond maxFrame.
		"lengthHuge": {0xFF, 0xFF, 0xFF, 0xFF},
		// Declared length larger than the bytes that follow (truncated body).
		"truncatedBody": {0x00, 0x00, 0x00, 0x20, 0, 0, 0, 0, 0, 0, 0, 1, byte(OpEnqueue), 'x'},
		// Traced enqueue whose payload is shorter than the 8-byte stamp.
		"tracedShortStamp": rawFrame(1, OpEnqueue|OpTraceFlag, []byte{1, 2, 3}),
		// Queue-qualified enqueue with a truncated queue id.
		"qualifiedShortQid": rawFrame(2, OpEnqueueQ, []byte{0, 7}),
		// Traced + qualified with a full stamp but truncated queue id.
		"tracedQualifiedShortQid": rawFrame(3, OpEnqueueQ|OpTraceFlag, append(append([]byte{}, stamp...), 0, 7)),
		// Batch enqueue declaring 2^32-1 entries with no bodies.
		"batchHugeCount": rawFrame(4, OpEnqueueBatch, []byte{0xFF, 0xFF, 0xFF, 0xFF}),
		// Batch enqueue whose last entry's length overruns the payload.
		"batchTruncatedEntry": rawFrame(5, OpEnqueueBatch, []byte{0, 0, 0, 1, 0, 0, 0, 9, 'x'}),
		// Batch enqueue with trailing garbage after the declared entries.
		"batchTrailing": rawFrame(6, OpEnqueueBatch, append(encodeBatch([][]byte{{'a'}}), 0xEE)),
		// Dequeue batch demanding more elements than MaxBatchOps allows.
		"deqBatchAbsurd": rawFrame(7, OpDequeueBatch, []byte{0x7F, 0xFF, 0xFF, 0xFF}),
		// Dequeue batch with a truncated count word.
		"deqBatchShort": rawFrame(8, OpDequeueBatch, []byte{0x01}),
		// Qualified dequeue batch with qid but truncated count.
		"deqBatchQualifiedShort": rawFrame(9, OpDequeueBatchQ, append(append([]byte{}, qidPrefix...), 0x01)),
		// Unknown opcode, and an opcode with an undefined flag combination.
		"unknownOp":     rawFrame(10, 0x55, []byte("???")),
		"undefinedFlag": rawFrame(11, OpLen|OpTraceFlag, stamp),
		// A response status arriving as a request.
		"statusAsRequest": rawFrame(12, StatusOK, nil),
		// Traced status reply shorter than its span block (client-side parse).
		"tracedReplyShort": rawFrame(13, StatusOK|OpTraceFlag, []byte{1, 2, 3}),
		// The retired RESIZE opcode (0x09, now unknown) with a truncated
		// shard-count word.
		"resizeShort": rawFrame(14, 0x09, []byte{0x02}),
		// Open with an empty name and with an oversized declared name.
		"openEmptyName": rawFrame(15, OpOpen, nil),
		"openLongName":  rawFrame(16, OpOpen, bytes.Repeat([]byte{'n'}, MaxQueueName+1)),
		// A perfectly valid frame, so the fuzzer starts from the happy path too.
		"validEnqueue": rawFrame(17, OpEnqueue, []byte("hello")),
		"validBatch":   rawFrame(18, OpEnqueueBatch, encodeBatch([][]byte{[]byte("a"), []byte("bc")})),
		// A frame whose body fills the frame cap exactly: the largest
		// admissible allocation, landing in the pool's top size class.
		"maxFrameBody": rawFrame(19, OpEnqueueBatch, maxBatchPayload()),
		// A large frame followed by a batch of zero-length entries on the
		// same connection: the second frame reuses the first's recycled
		// pool buffer, and its empty values must decode as empty — never
		// alias the stale large-frame bytes still in the buffer.
		"zeroLenBatchAfterLargeFrame": append(
			rawFrame(20, OpEnqueue, bytes.Repeat([]byte{0xAB}, fuzzMaxFrame/2)),
			rawFrame(21, OpEnqueueBatch, encodeBatch([][]byte{{}, {}, {}}))...),
	}
}

// maxBatchPayload builds a batch-enqueue payload that makes the whole
// frame exactly fuzzMaxFrame bytes: one entry absorbing all the room the
// framing and batch headers leave.
func maxBatchPayload() []byte {
	return encodeBatch([][]byte{make([]byte, fuzzMaxFrame-frameHeader-8)})
}

// FuzzFrame feeds arbitrary bytes through every pure parser on the frame
// path. All errors are acceptable outcomes; panics and hangs are not.
func FuzzFrame(f *testing.F) {
	for _, seed := range malformedSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bufio.NewReader(bytes.NewReader(data)), fuzzMaxFrame)
		if err != nil {
			return // rejected at the framing layer: fine
		}
		d := decodeOp(fr)
		if !d.bad {
			switch d.op {
			case OpEnqueueBatch:
				// The batch codec must reject anything inconsistent
				// without overreading; decoded values must alias inside
				// the payload.
				vals, err := decodeBatch(d.rest)
				if err == nil {
					var total int
					for _, v := range vals {
						total += len(v)
					}
					if total > len(d.rest) {
						t.Fatalf("decodeBatch returned %d bytes from a %d-byte payload", total, len(d.rest))
					}
				}
				// The server's copying decoder must agree with the
				// client's aliasing one on every input: same verdict,
				// same values.
				copies, perr := decodeBatchPooled(d.rest, nil)
				if (err == nil) != (perr == nil) || len(copies) != len(vals) {
					t.Fatalf("decoders disagree: decodeBatch (%d values, %v), decodeBatchPooled (%d values, %v)",
						len(vals), err, len(copies), perr)
				}
				for i := range copies {
					if !bytes.Equal(copies[i], vals[i]) {
						t.Fatalf("decoders disagree on value %d", i)
					}
					putBuf(copies[i])
				}
			case OpDequeueBatch:
				// Count word parse; the executor clamps against
				// MaxBatchOps, the parser only needs the 4 bytes.
				if len(d.rest) >= 4 {
					_ = binary.BigEndian.Uint32(d.rest[:4])
				}
			}
		}
		// The same bytes interpreted as a reply must also never panic.
		if _, _, _, err := splitTracedReply(fr); err != nil {
			return
		}
	})
}

// TestDecodeOpTruncatedPrefixes pins the exact prefix-truncation semantics
// the fuzz seeds probe: flagged opcodes whose payloads cannot carry their
// declared prefixes must come back bad, never misaddressed.
func TestDecodeOpTruncatedPrefixes(t *testing.T) {
	stamp := bytes.Repeat([]byte{9}, traceStampLen)
	cases := []struct {
		name    string
		kind    byte
		payload []byte
		wantBad bool
	}{
		{"tracedNoStamp", OpEnqueue | OpTraceFlag, nil, true},
		{"tracedShortStamp", OpDequeue | OpTraceFlag, []byte{1}, true},
		{"qualifiedNoQid", OpEnqueueQ, nil, true},
		{"qualifiedShortQid", OpDequeueBatchQ, []byte{1, 2}, true},
		{"tracedQualifiedShortQid", OpEnqueueQ | OpTraceFlag, append(append([]byte{}, stamp...), 1), true},
		{"tracedQualifiedOK", OpEnqueueQ | OpTraceFlag, append(append([]byte{}, stamp...), 0, 0, 0, 7, 'v'), false},
	}
	for _, c := range cases {
		d := decodeOp(frame{kind: c.kind, payload: c.payload})
		if d.bad != c.wantBad {
			t.Errorf("%s: bad = %v, want %v", c.name, d.bad, c.wantBad)
		}
		if c.name == "tracedQualifiedOK" && !d.bad {
			if !d.traced || d.qid != 7 || string(d.rest) != "v" {
				t.Errorf("tracedQualifiedOK decoded to %+v", d)
			}
		}
	}
}

// TestMalformedFramesNoPanicNoLeak replays the malformed seed corpus
// against a live server over TCP. Every connection must end in either a
// request-scoped reply or a clean server-side close; afterwards the server
// must still serve a fresh client, and the goroutine count must return to
// its pre-corpus baseline (no connection goroutine leaked by a poisoned
// connection).
func TestMalformedFramesNoPanicNoLeak(t *testing.T) {
	q, err := shard.New[[]byte](1, shard.WithMaxHandles(64))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q, WithMaxFrame(fuzzMaxFrame))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	roundTrip := func() error {
		c, err := Dial(addr)
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.Enqueue([]byte("ping")); err != nil {
			return err
		}
		_, _, err = c.Dequeue()
		return err
	}
	if err := roundTrip(); err != nil {
		t.Fatalf("pre-corpus round trip: %v", err)
	}
	baseline := settleGoroutines(-1)

	for name, payload := range malformedSeeds() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		if _, err := conn.Write(payload); err == nil {
			// Follow with a valid Len probe: if the malformed frame was
			// request-scoped the server must still answer on this
			// connection; if it poisoned the framing the server must
			// close, surfacing as an error or EOF here — both fine.
			conn.Write(rawFrame(99, OpLen, nil))
		}
		// One read resolves the connection's fate: a reply (request-scoped
		// rejection), EOF (server-side close), or a short deadline (server
		// legitimately blocked waiting for the rest of a declared frame —
		// closing below must still tear its goroutines down).
		conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		buf := make([]byte, 4096)
		conn.Read(buf)
		conn.Close()
	}

	if err := roundTrip(); err != nil {
		t.Fatalf("post-corpus round trip: %v", err)
	}
	after := settleGoroutines(baseline + 3)
	// Allow a little scheduler slack; a leak would hold one goroutine per
	// poisoned connection (the corpus size over baseline).
	if after > baseline+3 {
		t.Fatalf("goroutines %d after corpus, baseline %d: leaked connection goroutines", after, baseline)
	}
}
