package server

// Tests for the native batch wire path: codec, end-to-end batch ops,
// window coalescing into fabric batch calls, frame-cap overflow stashing,
// and the frames-vs-ops accounting split.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/shard"
)

func TestBatchCodecRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{},
		{[]byte("a")},
		{[]byte(""), []byte("bc"), bytes.Repeat([]byte{0xAB}, 1000)},
	}
	for _, vals := range cases {
		enc := encodeBatch(vals)
		if len(enc) != encodedBatchSize(vals) {
			t.Fatalf("encoded %d bytes, size computed %d", len(enc), encodedBatchSize(vals))
		}
		dec, err := decodeBatch(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(dec) != len(vals) {
			t.Fatalf("decoded %d values, want %d", len(dec), len(vals))
		}
		for i := range vals {
			if !bytes.Equal(dec[i], vals[i]) {
				t.Fatalf("value %d = %q, want %q", i, dec[i], vals[i])
			}
		}
	}
}

func TestBatchCodecRejectsMalformed(t *testing.T) {
	for name, payload := range map[string][]byte{
		"short":         {1, 2},
		"hugeCount":     {0xFF, 0xFF, 0xFF, 0xFF},
		"truncatedVal":  {0, 0, 0, 1, 0, 0, 0, 9, 'x'},
		"trailingBytes": append(encodeBatch([][]byte{{'a'}}), 0),
	} {
		if _, err := decodeBatch(payload); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func startTestServer(t *testing.T, opts ...Option) (*Server, *Client) {
	t.Helper()
	q, err := shard.New[[]byte](1, shard.WithMaxHandles(4))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestClientBatchRoundTrip(t *testing.T) {
	srv, c := startTestServer(t)
	vals := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	if err := c.EnqueueBatch(vals); err != nil {
		t.Fatal(err)
	}
	if err := c.EnqueueBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	got, err := c.DequeueBatch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("DequeueBatch returned %d values, want 3", len(got))
	}
	for i := range vals {
		if !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("value %d = %q, want %q (FIFO within a session)", i, got[i], vals[i])
		}
	}
	if got, err := c.DequeueBatch(4); err != nil || got != nil {
		t.Fatalf("DequeueBatch on empty = (%v,%v)", got, err)
	}
	st := srv.Snapshot().Server
	if st.Enqueues != 3 || st.Dequeues != 3 {
		t.Errorf("op counters enq=%d deq=%d, want 3 and 3 (ops, not frames)", st.Enqueues, st.Dequeues)
	}
	if st.FabricBatches < 2 || st.FabricBatchOps < 6 {
		t.Errorf("fabric batch counters = (%d,%d), want >= (2,6)", st.FabricBatches, st.FabricBatchOps)
	}
}

// TestBatchDequeueRespectsFrameCap enqueues values that cannot all fit one
// reply frame and asks for them in a single oversized batch: the server
// must split the delivery across requests via its stash instead of either
// overrunning the cap or losing values.
func TestBatchDequeueRespectsFrameCap(t *testing.T) {
	const maxFrame = 4096
	q, err := shard.New[[]byte](1, shard.WithMaxHandles(4))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q, WithMaxFrame(maxFrame))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialMaxFrame(srv.Addr().String(), maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 10
	value := bytes.Repeat([]byte{'v'}, 1000) // ~4 values per 4096-byte frame
	for i := 0; i < n; i++ {
		v := append([]byte{byte(i)}, value...)
		if err := c.Enqueue(v); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	for len(got) < n {
		vs, err := c.DequeueBatch(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) == 0 {
			t.Fatalf("fabric empty after %d of %d values", len(got), n)
		}
		if sz := encodedBatchSize(vs) + frameHeader; sz > maxFrame {
			t.Fatalf("reply frame %d bytes exceeds cap %d", sz, maxFrame)
		}
		got = append(got, vs...)
	}
	for i, v := range got {
		if v[0] != byte(i) {
			t.Fatalf("value %d out of order (got prefix %d)", i, v[0])
		}
	}
}

// TestNearCapValueStaysBatchDequeueable pins the invariant behind
// batchReplyOverhead: a value within 8 bytes of the frame cap would fit
// its own single enqueue frame but no batch reply, so the server must
// reject it at enqueue — otherwise a batch consumer would be told "empty"
// forever while the value sat in the session stash. The largest admissible
// value must round-trip through DequeueBatch.
func TestNearCapValueStaysBatchDequeueable(t *testing.T) {
	const maxFrame = 4096
	q, err := shard.New[[]byte](1, shard.WithMaxHandles(4))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q, WithMaxFrame(maxFrame))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Dial with a larger client cap so the client-side check does not mask
	// the server-side rejection.
	c, err := DialMaxFrame(srv.Addr().String(), 2*maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	gapValue := make([]byte, maxFrame-frameHeader) // fits the request frame, not a batch reply
	if err := c.Enqueue(gapValue); err == nil {
		t.Fatal("server accepted a value that no batch reply can ship")
	}
	biggest := make([]byte, maxFrame-frameHeader-batchReplyOverhead)
	biggest[0] = 0x5A
	if err := c.Enqueue(biggest); err != nil {
		t.Fatalf("largest admissible value rejected: %v", err)
	}
	vs, err := c.DequeueBatch(4)
	if err != nil || len(vs) != 1 || len(vs[0]) != len(biggest) || vs[0][0] != 0x5A {
		t.Fatalf("DequeueBatch = (%d values, %v), want the near-cap value back", len(vs), err)
	}

	// The client-side guard agrees with the server's.
	c2, err := DialMaxFrame(srv.Addr().String(), maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Enqueue(gapValue); err == nil {
		t.Fatal("client accepted a value that no batch reply can ship")
	}
}

// TestTracedNearCapBatchDequeue checks that a trace-sampled DEQ_BATCH
// ships a value too large to ride beside the span block: the reply drops
// the block and carries the value, rather than answering EMPTY while the
// value waits in the session's stash.
func TestTracedNearCapBatchDequeue(t *testing.T) {
	const maxFrame = 4096
	srv, _ := newTestServer(t, 1, nil, WithMaxFrame(maxFrame), WithObservability(true))
	rc := dialRaw(t, srv.Addr().String())
	biggest := bytes.Repeat([]byte{0x5A}, maxFrame-frameHeader-batchReplyOverhead)
	rc.write(rawFrame(1, OpEnqueue, biggest))
	if kind, _ := rc.reply(); kind != StatusOK {
		t.Fatalf("enqueue answered 0x%02x, want OK", kind)
	}
	var req [traceStampLen + 4]byte
	binary.BigEndian.PutUint64(req[:traceStampLen], uint64(time.Now().UnixNano()))
	binary.BigEndian.PutUint32(req[traceStampLen:], 4)
	rc.write(rawFrame(2, OpDequeueBatch|OpTraceFlag, req[:]))
	kind, payload := rc.reply()
	if kind != StatusOK {
		t.Fatalf("traced DEQ_BATCH answered 0x%02x with a %d-byte value parked, want OK", kind, len(biggest))
	}
	vs, err := decodeBatch(payload)
	if err != nil || len(vs) != 1 || !bytes.Equal(vs[0], biggest) {
		t.Fatalf("traced DEQ_BATCH shipped (%d values, %v), want the near-cap value", len(vs), err)
	}
}

// TestWindowCoalescing pipelines many single-op enqueues, then dequeues,
// and checks the server actually executed multi-op fabric calls (runs of
// adjacent same-kind frames) rather than per-frame sub-operations.
func TestWindowCoalescing(t *testing.T) {
	srv, c := startTestServer(t, WithWindow(64))
	const n = 32
	done := make(chan *call, n+1)
	var calls []*call
	for i := 0; i < n; i++ {
		cl, err := c.start(OpEnqueue, []byte{byte(i)}, done, nil)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, cl)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	for range calls {
		cl := <-done
		if cl.err != nil || cl.f.kind != StatusOK {
			t.Fatalf("pipelined enqueue reply = (%v, 0x%02x)", cl.err, cl.f.kind)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := c.Dequeue()
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("dequeue %d = (%v,%v,%v)", i, v, ok, err)
		}
	}
	st := srv.Snapshot().Server
	if st.FabricBatches == 0 || st.FabricBatchOps == 0 {
		t.Errorf("no fabric batch calls recorded for %d pipelined enqueues: %+v", n, st)
	}
	if st.Frames == 0 || st.BatchedOps < int64(2*n) {
		t.Errorf("frames=%d batchedOps=%d, want frames > 0 and ops >= %d", st.Frames, st.BatchedOps, 2*n)
	}
}

// TestStatsJSONRoundTrip pins the Snapshot's stable JSON encoding,
// including the new frames-vs-ops accounting fields.
func TestStatsJSONRoundTrip(t *testing.T) {
	srv, c := startTestServer(t)
	if err := c.EnqueueBatch([][]byte{[]byte("x"), []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DequeueBatch(2); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(srv.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Server != srv.Snapshot().Server {
		// Counters may tick between the two snapshots only if traffic runs;
		// none does here.
		t.Errorf("server stats did not survive the round trip:\n got %+v\nwant %+v",
			back.Server, srv.Snapshot().Server)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	serverRaw := raw["server"].(map[string]any)
	for _, key := range []string{"frames", "batched_ops", "fabric_batches", "fabric_batch_ops", "ops_per_batch"} {
		if _, ok := serverRaw[key]; !ok {
			t.Errorf("snapshot JSON missing %q", key)
		}
	}
}
