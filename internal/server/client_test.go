package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// dialWrapped connects a client with frame cap maxFrame to srv through
// wrap, so a test can watch or break the client's writes.
func dialWrapped(t *testing.T, srv *Server, maxFrame int, wrap func(net.Conn) net.Conn) *Client {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(wrap(conn), maxFrame)
	t.Cleanup(func() { c.Close() })
	return c
}

// runCallers runs n callers of f concurrently and returns the first error
// any of them reports.
func runCallers(n int, f func(g int) error) error {
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- f(g)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// countingConn counts the socket writes made through it.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestClientSharesWrites pins the client's write sharing: concurrent
// callers on one Client ride each other's socket writes. At GOMAXPROCS 1 a
// writer that wrote at once would find nobody else queued, so the ratio
// also pins the writer's yield.
func TestClientSharesWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, _ := newTestServer(t, 1, nil)
	cc := &countingConn{}
	c := dialWrapped(t, srv, DefaultMaxFrame, func(conn net.Conn) net.Conn { cc.Conn = conn; return cc })
	const callers, perCaller = 32, 200
	err := runCallers(callers, func(g int) error {
		v := []byte{byte(g)}
		for i := 0; i < perCaller; i++ {
			if err := c.Enqueue(v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	writes := cc.writes.Load()
	perWrite := float64(callers*perCaller) / float64(writes)
	t.Logf("%d frames in %d writes: %.2f frames per write", callers*perCaller, writes, perWrite)
	if perWrite < 4 {
		t.Errorf("%.2f frames per write from %d concurrent callers, want >= 4", perWrite, callers)
	}
}

// slowConn writes each buffer in two halves with a yield between them, so
// other callers run — and append frames — while a write is half done. It
// counts the writes and the distinct backing arrays they were made from;
// only the writer touches those, and the client's wmu orders the writers.
type slowConn struct {
	net.Conn
	maxWrite atomic.Int64
	writes   int
	arrays   map[*byte]bool
}

func (c *slowConn) Write(p []byte) (int, error) {
	if n := int64(len(p)); n > c.maxWrite.Load() {
		c.maxWrite.Store(n) // a statistic for the log; only the writer stores
	}
	if c.arrays == nil {
		c.arrays = make(map[*byte]bool)
	}
	c.writes++
	c.arrays[unsafe.SliceData(p)] = true
	h := len(p) / 2
	n, err := c.Conn.Write(p[:h])
	if err != nil {
		return n, err
	}
	runtime.Gosched()
	m, err := c.Conn.Write(p[h:])
	return n + m, err
}

// patterned fills v with bytes derived from its (caller, batch, index)
// header, so a value corrupted anywhere no longer matches the pattern its
// header names.
func patterned(v []byte, g, b, i int) {
	binary.BigEndian.PutUint16(v[0:2], uint16(g))
	binary.BigEndian.PutUint16(v[2:4], uint16(b))
	binary.BigEndian.PutUint16(v[4:6], uint16(i))
	for j := 6; j < len(v); j++ {
		v[j] = byte(g*31 + b*7 + i*3 + j)
	}
}

// enqueueBurst runs callers that each send batches EnqueueBatch frames of
// m patterned values of size bytes, one frame in flight per caller.
func enqueueBurst(c *Client, callers, batches, m, size int) error {
	return runCallers(callers, func(g int) error {
		vs := make([][]byte, m)
		for i := range vs {
			vs[i] = make([]byte, size)
		}
		for b := 0; b < batches; b++ {
			for i, v := range vs {
				patterned(v, g, b, i)
			}
			if err := c.EnqueueBatch(vs); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestClientFramesIntactUnderSlowWriter checks that a written buffer never
// shares memory with the frames queued behind it: callers append while
// the writer is mid-write, and every value must still come back byte for
// byte, exactly once. At the default frame cap the client keeps both of
// its buffers; at a cap below the burst it drops each written buffer that
// outgrew the cap and grows a fresh one.
func TestClientFramesIntactUnderSlowWriter(t *testing.T) {
	const callers, batches, m, size = 16, 20, 32, 256
	for _, tc := range []struct {
		name     string
		maxFrame int
	}{
		{"kept", DefaultMaxFrame},
		{"dropped", 16 << 10}, // one frame is 8,337 B; a burst of 16 is 133,392 B
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestServer(t, 1, nil, WithMaxFrame(tc.maxFrame))
			sc := &slowConn{}
			c := dialWrapped(t, srv, tc.maxFrame, func(conn net.Conn) net.Conn { sc.Conn = conn; return sc })
			// A corrupted length word leaves the server waiting for bytes
			// that never come; the deadline turns that hang into a failed
			// read.
			if err := sc.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if err := enqueueBurst(c, callers, batches, m, size); err != nil {
				t.Fatal(err)
			}
			largest := sc.maxWrite.Load()
			t.Logf("largest write %d B, frame cap %d B", largest, tc.maxFrame)
			if tc.maxFrame < DefaultMaxFrame && largest <= int64(tc.maxFrame) {
				t.Fatalf("no write outgrew the %d-byte cap, so no written buffer was dropped", tc.maxFrame)
			}

			seen := make(map[[3]uint16]bool)
			want := make([]byte, size)
			for {
				vs, err := c.DequeueBatch(MaxBatchOps)
				if err != nil {
					t.Fatal(err)
				}
				if vs == nil {
					break
				}
				for _, v := range vs {
					if len(v) != size {
						t.Fatalf("value of %d bytes, want %d", len(v), size)
					}
					k := [3]uint16{binary.BigEndian.Uint16(v[0:2]), binary.BigEndian.Uint16(v[2:4]), binary.BigEndian.Uint16(v[4:6])}
					if int(k[0]) >= callers || int(k[1]) >= batches || int(k[2]) >= m || seen[k] {
						t.Fatalf("value header %v is out of range or delivered twice", k)
					}
					seen[k] = true
					patterned(want, int(k[0]), int(k[1]), int(k[2]))
					if !bytes.Equal(v, want) {
						t.Fatalf("value %v corrupted on the wire", k)
					}
				}
			}
			if len(seen) != callers*batches*m {
				t.Fatalf("drained %d values, want %d", len(seen), callers*batches*m)
			}
		})
	}
}

// TestClientKeepsSendBuffers checks that a burst of batch frames past the
// server's reply retention mark does not cost the client a fresh send
// buffer per write: the written buffer and the one callers fill meanwhile
// settle at the burst size and alternate. A warm-up round lets both grow
// to the largest burst (16 frames, 133,392 B; the first bursts can be
// smaller, depending on how the callers' first frames are scheduled), and
// the writes after it must use at most those 2 arrays.
func TestClientKeepsSendBuffers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, _ := newTestServer(t, 1, nil)
	sc := &slowConn{}
	c := dialWrapped(t, srv, DefaultMaxFrame, func(conn net.Conn) net.Conn { sc.Conn = conn; return sc })
	const callers, m, size = 16, 32, 256
	if err := enqueueBurst(c, callers, 8, m, size); err != nil {
		t.Fatal(err)
	}
	sc.writes, sc.arrays = 0, nil // every caller has returned, so no writer runs
	if err := enqueueBurst(c, callers, 40, m, size); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d writes from %d backing arrays, largest %d B", sc.writes, len(sc.arrays), sc.maxWrite.Load())
	if len(sc.arrays) > 2 {
		t.Errorf("%d writes used %d distinct backing arrays, want at most 2", sc.writes, len(sc.arrays))
	}
}

var errInjectedWrite = errors.New("injected write failure")

// failingConn lets its first writes through and fails every one after.
type failingConn struct {
	net.Conn
	left atomic.Int64
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.left.Add(-1) < 0 {
		return 0, errInjectedWrite
	}
	return c.Conn.Write(p)
}

// TestClientWriteFailureWakesEveryCaller checks that a failed write fails
// the whole client with that error: every caller — whether its frame rode
// the lost buffer or was queued behind it — returns the write error rather
// than waiting for a reply that will never come, and later calls fail at
// once.
func TestClientWriteFailureWakesEveryCaller(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil)
	fc := &failingConn{}
	fc.left.Store(8)
	c := dialWrapped(t, srv, DefaultMaxFrame, func(conn net.Conn) net.Conn { fc.Conn = conn; return fc })
	const callers = 32
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			for {
				if err := c.Enqueue([]byte{byte(g)}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	timeout := time.After(10 * time.Second)
	for g := 0; g < callers; g++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errInjectedWrite) {
				t.Fatalf("caller returned %v, want the write error", err)
			}
		case <-timeout:
			t.Fatalf("%d of %d callers still waiting after the write failed", callers-g, callers)
		}
	}
	later := make(chan error, 1)
	go func() { later <- c.Enqueue([]byte("late")) }()
	select {
	case err := <-later:
		if !errors.Is(err, errInjectedWrite) {
			t.Fatalf("call after the failure returned %v, want the write error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call after the failure did not return")
	}
}
