package server

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/queues/queuetest"
	"repro/internal/shard"
)

// netQueue adapts a server-backed set of clients to the queues.Queue
// interface so the repository's conformance suite can run over loopback.
// The backing fabric has a single shard, where the relaxed cross-shard
// order vanishes and the service must behave as one linearizable FIFO.
type netQueue struct {
	handles []wireQueue
	name    string
}

func (q *netQueue) Name() string { return q.name }
func (q *netQueue) Procs() int   { return len(q.handles) }
func (q *netQueue) Handle(i int) (queues.Handle, error) {
	if i < 0 || i >= len(q.handles) {
		return nil, fmt.Errorf("net: handle index %d out of range [0,%d)", i, len(q.handles))
	}
	return netHandle{c: q.handles[i]}, nil
}

// wireQueue is the operation surface netHandle needs; both *Client (the
// default queue) and *NamedQueue (a named tenant) provide it.
type wireQueue interface {
	Enqueue(v []byte) error
	Dequeue() ([]byte, bool, error)
	EnqueueBatch(vs [][]byte) error
	DequeueBatch(n int) ([][]byte, error)
}

// netHandle is one client connection as a queues.Handle. Wire values are
// the int64's big-endian bytes.
type netHandle struct{ c wireQueue }

func (h netHandle) Enqueue(v int64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	if err := h.c.Enqueue(buf[:]); err != nil {
		panic(fmt.Sprintf("net enqueue: %v", err))
	}
}

func (h netHandle) Dequeue() (int64, bool) {
	v, ok, err := h.c.Dequeue()
	if err != nil {
		panic(fmt.Sprintf("net dequeue: %v", err))
	}
	if !ok {
		return 0, false
	}
	if len(v) != 8 {
		panic(fmt.Sprintf("net dequeue: %d-byte value", len(v)))
	}
	return int64(binary.BigEndian.Uint64(v)), true
}

// EnqueueBatch ships the batch as one native ENQ_BATCH frame.
func (h netHandle) EnqueueBatch(vs []int64) {
	bs := make([][]byte, len(vs))
	for i, v := range vs {
		buf := make([]byte, 8)
		binary.BigEndian.PutUint64(buf, uint64(v))
		bs[i] = buf
	}
	if err := h.c.EnqueueBatch(bs); err != nil {
		panic(fmt.Sprintf("net enqueue batch: %v", err))
	}
}

// DequeueBatch ships one native DEQ_BATCH frame. The tiny 8-byte values of
// the conformance suite never hit the reply frame cap, so a short count
// here means the fabric certified empty, as the suite expects.
func (h netHandle) DequeueBatch(n int) ([]int64, int) {
	bs, err := h.c.DequeueBatch(n)
	if err != nil {
		panic(fmt.Sprintf("net dequeue batch: %v", err))
	}
	out := make([]int64, len(bs))
	for i, b := range bs {
		if len(b) != 8 {
			panic(fmt.Sprintf("net dequeue batch: %d-byte value", len(b)))
		}
		out[i] = int64(binary.BigEndian.Uint64(b))
	}
	return out, len(out)
}

// SetCounter is a no-op: the cost model counts shared-memory steps, which
// happen on the server side of the wire.
func (h netHandle) SetCounter(*metrics.Counter) {}

// TestLoopbackConformance runs the full FIFO/conservation conformance
// suite against the service over localhost: every check that holds for the
// in-process queue must survive the wire, the session layer, and the
// windowed executor.
func TestLoopbackConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback conformance pays a round trip per op")
	}
	factory := queues.Factory{
		Name: "net(sharded-1)",
		New: func(procs int) (queues.Queue, error) {
			if procs < 1 {
				return nil, fmt.Errorf("net: procs %d must be at least 1", procs)
			}
			q, err := shard.New[[]byte](1, shard.WithMaxHandles(procs))
			if err != nil {
				return nil, err
			}
			srv, err := Serve("127.0.0.1:0", q)
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { srv.Close() })
			nq := &netQueue{name: "net(sharded-1)"}
			for i := 0; i < procs; i++ {
				c, err := Dial(srv.Addr().String())
				if err != nil {
					return nil, err
				}
				t.Cleanup(func() { c.Close() })
				nq.handles = append(nq.handles, c)
			}
			return nq, nil
		},
	}
	queuetest.Run(t, factory)
}

// TestNamedLoopbackConformance runs the same suite against a *named*
// queue: every connection Opens the same name and operates through
// queue-qualified frames, so the whole namespace path — OPEN handshake,
// per-(connection, queue) leases, qualified coalescing — must preserve
// the single-queue FIFO and conservation semantics at k=1. The default
// queue of the serving fabric is left untouched; any value leaking
// between queue 0 and the named tenant fails the suite.
func TestNamedLoopbackConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback conformance pays a round trip per op")
	}
	factory := queues.Factory{
		Name: "net(named-1)",
		New: func(procs int) (queues.Queue, error) {
			if procs < 1 {
				return nil, fmt.Errorf("net: procs %d must be at least 1", procs)
			}
			q, err := shard.New[[]byte](1, shard.WithMaxHandles(procs))
			if err != nil {
				return nil, err
			}
			srv, err := Serve("127.0.0.1:0", q, WithQueueFactory(func() (*shard.Queue[[]byte], error) {
				return shard.New[[]byte](1, shard.WithMaxHandles(procs))
			}))
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { srv.Close() })
			nq := &netQueue{name: "net(named-1)"}
			for i := 0; i < procs; i++ {
				c, err := Dial(srv.Addr().String())
				if err != nil {
					return nil, err
				}
				t.Cleanup(func() { c.Close() })
				named, err := c.Open("conformance")
				if err != nil {
					return nil, err
				}
				nq.handles = append(nq.handles, named)
			}
			return nq, nil
		},
	}
	queuetest.Run(t, factory)
}

// TestConnectionChurnConservation churns sessions under load: many
// goroutines repeatedly connect, push a batch, pull what they can, and
// disconnect, so handle leases are acquired and released continuously
// while values flow. Every acknowledged value must come back exactly once,
// and every lease must be returned.
func TestConnectionChurnConservation(t *testing.T) {
	const (
		workers   = 8
		conns     = 6   // sequential connections per worker
		perConn   = 120 // enqueues per connection
		maxLeases = 5   // fewer slots than workers: denials must occur and recover
	)
	q, err := shard.New[[]byte](4, shard.WithMaxHandles(maxLeases))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q, WithWindow(16))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		enqueued = make(map[uint64]bool)
		got      = make(map[uint64]int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for conn := 0; conn < conns; conn++ {
				var (
					mine []uint64
					seen []uint64
				)
				// A denied session (registry full) is expected with
				// workers > maxLeases; retry until a lease frees up.
				for {
					c, err := Dial(srv.Addr().String())
					if err != nil {
						t.Error(err)
						return
					}
					key0 := uint64(w)<<32 | uint64(conn)<<16
					if err := c.Enqueue(u64(key0)); err != nil {
						c.Close()
						time.Sleep(time.Millisecond)
						continue
					}
					mine = append(mine, key0)
					for i := 1; i < perConn; i++ {
						key := key0 | uint64(i)
						if err := c.Enqueue(u64(key)); err != nil {
							t.Errorf("worker %d conn %d enqueue %d: %v", w, conn, i, err)
							c.Close()
							return
						}
						mine = append(mine, key)
						if i%3 == 0 {
							if v, ok, err := c.Dequeue(); err != nil {
								t.Errorf("worker %d dequeue: %v", w, err)
								c.Close()
								return
							} else if ok {
								seen = append(seen, binary.BigEndian.Uint64(v))
							}
						}
					}
					c.Close()
					break
				}
				mu.Lock()
				for _, k := range mine {
					enqueued[k] = true
				}
				for _, k := range seen {
					got[k]++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Drain the residue through one final session.
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for {
		v, ok, err := c.Dequeue()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got[binary.BigEndian.Uint64(v)]++
	}

	for k, n := range got {
		if n > 1 {
			t.Errorf("value %#x dequeued %d times", k, n)
		}
		if !enqueued[k] {
			t.Errorf("phantom value %#x dequeued", k)
		}
	}
	for k := range enqueued {
		if got[k] == 0 {
			t.Errorf("value %#x lost", k)
		}
	}
	if want := workers * conns * perConn; len(enqueued) != want {
		t.Errorf("enqueued %d distinct values, want %d", len(enqueued), want)
	}

	if inUse := q.RegistryStats().InUse; inUse != 1 { // the drain client's lease
		t.Errorf("InUse after churn = %d, want 1", inUse)
	}
	st := srv.Snapshot()
	if st.Fabric.Registry.Acquires < int64(workers*conns) {
		t.Errorf("lease churn %d below session churn %d", st.Fabric.Registry.Acquires, workers*conns)
	}
}

func u64(v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return buf[:]
}
