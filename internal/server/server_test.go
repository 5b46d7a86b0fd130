package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
)

// newTestServer starts a server over a fresh fabric and tears both down
// with the test.
func newTestServer(t *testing.T, shards int, qopts []shard.Option, sopts ...Option) (*Server, *shard.Queue[[]byte]) {
	t.Helper()
	q, err := shard.New[[]byte](shards, qopts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q, sopts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, q
}

func newTestClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBasicRoundTrips(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)

	if _, ok, err := c.Dequeue(); err != nil || ok {
		t.Fatalf("Dequeue on empty = (ok=%v, err=%v)", ok, err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Enqueue([]byte{byte(i)}); err != nil {
			t.Fatalf("Enqueue %d: %v", i, err)
		}
	}
	if n, err := c.Len(); err != nil || n != 100 {
		t.Fatalf("Len = (%d, %v), want 100", n, err)
	}
	// One client leases one handle with one home shard, so its own
	// enqueues come back FIFO even on a multi-shard fabric.
	for i := 0; i < 100; i++ {
		v, ok, err := c.Dequeue()
		if err != nil || !ok || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("Dequeue %d = (%v, %v, %v)", i, v, ok, err)
		}
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(stats, &snap); err != nil {
		t.Fatalf("Stats JSON: %v\n%s", err, stats)
	}
	if snap.Server.SessionsOpen != 1 || snap.Server.Enqueues != 100 || snap.Server.Dequeues != 100 {
		t.Errorf("stats = %+v", snap.Server)
	}
	if snap.Fabric.Registry.Acquires != 1 || snap.Fabric.Registry.InUse != 1 {
		t.Errorf("fabric registry = %+v", snap.Fabric.Registry)
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil)
	c := newTestClient(t, srv)
	if err := c.Enqueue(nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Dequeue()
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value round trip = (%v, %v, %v)", v, ok, err)
	}
}

func TestClosedQueue(t *testing.T) {
	srv, q := newTestServer(t, 1, nil)
	c := newTestClient(t, srv)
	if err := c.Enqueue([]byte("x")); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if err := c.Enqueue([]byte("y")); !errors.Is(err, ErrClosedQueue) {
		t.Fatalf("Enqueue after Close = %v, want ErrClosedQueue", err)
	}
	// Dequeue keeps draining the backlog after Close.
	if v, ok, err := c.Dequeue(); err != nil || !ok || string(v) != "x" {
		t.Fatalf("Dequeue after Close = (%q, %v, %v)", v, ok, err)
	}
}

func TestSessionDeniedWhenRegistryExhausted(t *testing.T) {
	srv, _ := newTestServer(t, 1, []shard.Option{shard.WithMaxHandles(1)})
	c1 := newTestClient(t, srv)
	if err := c1.Enqueue([]byte("x")); err != nil { // forces c1's lease to exist
		t.Fatal(err)
	}
	c2, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err) // TCP accept succeeds; denial arrives as a frame
	}
	defer c2.Close()
	if err := c2.Enqueue([]byte("y")); err == nil ||
		!strings.Contains(err.Error(), "refused") {
		t.Fatalf("second session error = %v, want refused-session", err)
	}
	if denied := srv.Snapshot().Server.SessionsDenied; denied != 1 {
		t.Errorf("SessionsDenied = %d, want 1", denied)
	}
}

func TestIdleSessionReaped(t *testing.T) {
	srv, q := newTestServer(t, 1, nil, WithIdleTimeout(50*time.Millisecond))
	c := newTestClient(t, srv)
	if err := c.Enqueue([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := q.RegistryStats().InUse; got != 1 {
		t.Fatalf("InUse before reap = %d", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for q.RegistryStats().InUse != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if reaped := srv.Snapshot().Server.SessionsReaped; reaped != 1 {
		t.Errorf("SessionsReaped = %d, want 1", reaped)
	}
	if err := c.Enqueue([]byte("y")); err == nil {
		t.Error("enqueue on reaped session succeeded")
	}
}

// TestStalledReaderBackpressure pins what the window bounds now that the
// server answers no BUSY: a peer that pipelines far more dequeues than the
// window and reads none of the replies stalls the server in its reply
// write, and while it stalls the server reads no further frames and holds
// at most W read but unanswered. Nothing is refused: once the peer reads,
// every request is answered OK, in order, and the fabric is drained.
func TestStalledReaderBackpressure(t *testing.T) {
	const (
		values    = 300
		valueSize = 32 << 10
		window    = 2
	)
	srv, q := newTestServer(t, 1, nil, WithWindow(window))
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xAB}, valueSize)
	for i := 0; i < values; i++ {
		if err := h.Enqueue(big); err != nil {
			t.Fatal(err)
		}
	}
	h.Release()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	for i := 0; i < values; i++ {
		if err := writeFrame(bw, uint64(i+1), OpDequeue, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Read nothing until the server has run into the full socket buffers:
	// its request count stops moving, short of the pipelined total.
	var st Stats
	for prev, still, deadline := int64(-1), 0, time.Now().Add(5*time.Second); still < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("server never stalled: %d requests read", st.Requests)
		}
		time.Sleep(20 * time.Millisecond)
		if st = srv.Snapshot().Server; st.Requests == prev {
			still++
		} else {
			prev, still = st.Requests, 0
		}
	}
	if st.Requests >= values {
		t.Fatalf("server read all %d requests of a peer that reads nothing", st.Requests)
	}
	if held := st.Requests - st.Frames; held > window {
		t.Errorf("server holds %d frames read but unanswered, window %d", held, window)
	}
	time.Sleep(100 * time.Millisecond)
	if got := srv.Snapshot().Server.Requests; got != st.Requests {
		t.Errorf("requests grew from %d to %d while the peer read nothing", st.Requests, got)
	}

	br := bufio.NewReader(conn)
	for i := 0; i < values; i++ {
		f, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if f.id != uint64(i+1) || f.kind != StatusOK || len(f.payload) != valueSize {
			t.Fatalf("reply %d: id %d, status 0x%02x, %d-byte value", i, f.id, f.kind, len(f.payload))
		}
	}
	if got := q.Len(); got != 0 {
		t.Errorf("fabric len = %d after every dequeue was answered", got)
	}
	if busy := srv.Snapshot().Server.Busy; busy != 0 {
		t.Errorf("stats busy = %d, want 0", busy)
	}
}

// settleGoroutines polls runtime.NumGoroutine until it equals target or
// stops changing between two polls 20 ms apart, for at most 3 s, and
// returns it; a negative target waits only for it to stop changing. It
// gives closed connections' goroutines time to exit and new ones time to
// start.
func settleGoroutines(target int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); n != target && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		next := runtime.NumGoroutine()
		if next == n {
			break
		}
		n = next
	}
	return n
}

// TestGoroutinePerConnection pins the connection model: each open
// connection costs the server exactly one goroutine, and Close returns the
// count to where it was before Serve.
func TestGoroutinePerConnection(t *testing.T) {
	const conns = 8
	before := settleGoroutines(-1)
	q, err := shard.New[[]byte](1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := settleGoroutines(-1)
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}
	for deadline := time.Now().Add(3 * time.Second); srv.Snapshot().Server.SessionsOpen != conns; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sessions open", srv.Snapshot().Server.SessionsOpen, conns)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := settleGoroutines(base + conns); got != base+conns {
		t.Errorf("%d goroutines with %d connections open, want %d (baseline %d + one each)",
			got, conns, base+conns, base)
	}
	srv.Close()
	if got := settleGoroutines(before); got != before {
		t.Errorf("%d goroutines after Close, want %d as before Serve", got, before)
	}
}

// TestBatching verifies pipelined requests are answered in fewer flushes
// than ops: the ops-per-batch stat must exceed 1 when a burst is written
// in one flush.
func TestBatching(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil, WithWindow(64))
	c := newTestClient(t, srv)
	const burst = 32
	done := make(chan *call, burst)
	for i := 0; i < burst; i++ {
		if _, err := c.start(OpEnqueue, []byte{byte(i)}, done, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		cl := <-done
		if cl.err != nil || cl.f.kind != StatusOK {
			t.Fatalf("burst reply %d: err=%v kind=0x%02x", i, cl.err, cl.f.kind)
		}
	}
	st := srv.Snapshot().Server
	if st.Batches >= burst {
		t.Errorf("batches = %d for %d pipelined ops: no coalescing", st.Batches, burst)
	}
	if st.OpsPerBatch <= 1 {
		t.Errorf("OpsPerBatch = %.2f, want > 1", st.OpsPerBatch)
	}
}

func TestStatszHandler(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)
	if err := c.Enqueue([]byte("x")); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.StatszHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("statsz JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if snap.Server.Enqueues != 1 || snap.Fabric.Shards != 2 || snap.Fabric.Len != 1 {
		t.Errorf("statsz snapshot = %+v", snap)
	}
}

func TestWireFrameValidation(t *testing.T) {
	// Length below the id+kind header.
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(3))
	buf.Write([]byte{1, 2, 3})
	if _, err := readFrame(bufio.NewReader(&buf), DefaultMaxFrame); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short frame error = %v, want ErrBadFrame", err)
	}
	// Length above the cap.
	buf.Reset()
	binary.Write(&buf, binary.BigEndian, uint32(1<<30))
	buf.Write(make([]byte, 64))
	if _, err := readFrame(bufio.NewReader(&buf), DefaultMaxFrame); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame error = %v, want ErrFrameTooLarge", err)
	}
	// Round trip, payload and no payload.
	buf.Reset()
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, 42, OpEnqueue, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(w, 43, OpDequeue, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	f, err := readFrame(r, DefaultMaxFrame)
	if err != nil || f.id != 42 || f.kind != OpEnqueue || string(f.payload) != "hello" {
		t.Errorf("frame 1 = (%+v, %v)", f, err)
	}
	f, err = readFrame(r, DefaultMaxFrame)
	if err != nil || f.id != 43 || f.kind != OpDequeue || f.payload != nil {
		t.Errorf("frame 2 = (%+v, %v)", f, err)
	}
}

func TestUnknownOpcode(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, 7, 0x7F, nil); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	f, err := readFrame(bufio.NewReader(conn), DefaultMaxFrame)
	if err != nil || f.id != 7 || f.kind != StatusErr {
		t.Fatalf("unknown opcode reply = (%+v, %v), want StatusErr", f, err)
	}
}

func TestServerCloseReleasesLeases(t *testing.T) {
	q, err := shard.New[[]byte](1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q)
	if err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for i := 0; i < 5; i++ {
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		if err := c.Enqueue([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := q.RegistryStats().InUse; got != 0 {
		t.Errorf("InUse after server close = %d, want 0", got)
	}
	st := q.RegistryStats()
	if st.Acquires != 5 || st.Releases != 5 {
		t.Errorf("lease churn after close = %+v", st)
	}
	for _, c := range clients {
		c.Close()
	}
}

func TestClientFrameCap(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil, WithMaxFrame(1<<16))
	c, err := DialMaxFrame(srv.Addr().String(), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	// An oversized value is rejected locally, before it can kill the
	// connection server-side...
	if err := c.Enqueue(make([]byte, 1<<16)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized Enqueue = %v, want ErrFrameTooLarge", err)
	}
	// ...and the connection is still healthy afterwards.
	if err := c.Enqueue(make([]byte, 1024)); err != nil {
		t.Fatalf("Enqueue after rejected oversize: %v", err)
	}
	if _, err := DialMaxFrame(srv.Addr().String(), 3); err == nil {
		t.Error("sub-header frame cap accepted")
	}
}
