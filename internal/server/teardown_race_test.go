package server

// Conformance tests for the binding-stash seam: values pulled from a
// queue's fabric but not yet shipped (a batch reply hit the frame cap)
// are session-owned, and the two teardown paths that can interrupt them —
// the owner deleting the queue mid-dequeue, and the idle reaper closing
// the session — must keep them conserved: delivered at most once, never
// invented, and re-enqueued behind the backlog when the session dies with
// the queue still alive.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// stashValue builds a ~1KB value tagged by i in its first byte, so a
// 4096-byte frame cap fits about four per batch reply and the remainder
// of a larger pull lands in the binding stash.
func stashValue(i int) []byte {
	return append([]byte{byte(i)}, bytes.Repeat([]byte{'v'}, 1000)...)
}

// TestDequeueBatchRacesQueueDelete drives batch dequeues against a named
// queue while another client deletes it. The fabric closes under the
// dequeuer mid-stream; the server must never panic or wedge, must never
// deliver a value twice (stash and fabric both feeding replies during the
// swap is the hazard), and must stay fully serviceable on other queues.
// Values still inside the fabric at delete time may drop — that loss is
// the deleting owner's documented choice — but stash-held values are
// already the session's and keep flowing.
func TestDequeueBatchRacesQueueDelete(t *testing.T) {
	const maxFrame = 4096
	srv, admin := startTestServer(t, WithMaxFrame(maxFrame))
	consumer, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	nq, err := consumer.Open("doomed")
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := nq.Enqueue(stashValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Prime the stash: one oversized pull ships ~4 values and parks the
	// rest of what it pulled server-side.
	first, err := nq.DequeueBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("primer batch came back empty")
	}

	seen := make(map[byte]int, n)
	for _, v := range first {
		seen[v[0]]++
	}
	var wg sync.WaitGroup
	wg.Add(1)
	deleted := make(chan struct{})
	go func() {
		defer wg.Done()
		if err := admin.Delete("doomed"); err != nil {
			t.Errorf("delete: %v", err)
		}
		close(deleted)
	}()

	// Keep dequeuing through the delete. Termination: an empty reply after
	// the delete has landed means stash and fabric remainder are drained.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("dequeue loop did not terminate after delete")
		}
		vs, err := nq.DequeueBatch(8)
		if err != nil {
			// The deleted queue's id may start refusing outright; that is a
			// valid terminal answer too, but only once the delete happened.
			<-deleted
			break
		}
		for _, v := range vs {
			seen[v[0]]++
		}
		if len(vs) == 0 {
			select {
			case <-deleted:
			default:
				continue // queue still live, genuinely drained early: retry
			}
			break
		}
	}
	wg.Wait()

	// At-most-once, nothing invented: every tag seen is one of ours and
	// was delivered exactly once. (Exactly-n would overclaim: fabric-held
	// values at delete time are legitimately dropped.)
	for tag, count := range seen {
		if int(tag) >= n {
			t.Errorf("received value with unknown tag %d", tag)
		}
		if count != 1 {
			t.Errorf("tag %d delivered %d times", tag, count)
		}
	}
	if len(seen) < len(first) {
		t.Errorf("lost already-delivered values: seen %d < primer %d", len(seen), len(first))
	}

	// The name is free again and must map to a fresh, empty queue under a
	// new id — not the closed fabric.
	nq2, err := admin.Open("doomed")
	if err != nil {
		t.Fatalf("reopen after delete: %v", err)
	}
	if nq2.ID() == nq.ID() {
		t.Errorf("reopened queue reused id %d", nq.ID())
	}
	if l, err := nq2.Len(); err != nil || l != 0 {
		t.Errorf("reopened queue len = %d, %v; want 0, nil", l, err)
	}

	// The consumer's session still holds a binding (and possibly a stash
	// remnant) for the dead queue; closing it runs finishSession's
	// re-enqueue against the closed fabric, which must be a quiet no-op.
	consumer.Close()
	if err := admin.Enqueue([]byte("alive")); err != nil {
		t.Fatalf("server unserviceable after race: %v", err)
	}
	if v, ok, err := admin.Dequeue(); err != nil || !ok || string(v) != "alive" {
		t.Fatalf("default queue round trip after race: %q %v %v", v, ok, err)
	}
}

// TestTeardownReEnqueuesStash parks values in a session's stash, lets the
// session die, and checks conservation end to end: the stashed values
// reappear in the fabric (behind the backlog, order traded for
// conservation) and a second consumer drains exactly the values the first
// one never received — the full set, no loss, no dup. Two ways to park and
// die: one oversized batch pull followed by the idle reaper, and a
// pipelined [DEQ_BATCH, DEQ, DEQ_BATCH] run — one coalesced pull whose
// first reply overflows its byte budget, the rest dealt on down the run —
// followed by the client cutting the connection.
func TestTeardownReEnqueuesStash(t *testing.T) {
	const maxFrame = 4096
	const n = 40
	cases := []struct {
		name string
		idle time.Duration
		// victim receives some strict subset of the n queued values, in
		// order, and leaves its session to die with the rest parked.
		victim func(t *testing.T, addr string) [][]byte
	}{
		{"batch pull then idle reap", 60 * time.Millisecond, func(t *testing.T, addr string) [][]byte {
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			// One pull for everything: ~4 ship, the rest is stash. Then go
			// silent and let the reaper take the session.
			got, err := c.DequeueBatch(n)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}},
		{"coalesced run then connection cut", time.Minute, func(t *testing.T, addr string) [][]byte {
			rc := dialRaw(t, addr)
			count := []byte{0, 0, 0, n}
			// The burst goes out in one write, so the server (almost
			// always) reads it as one window and serves the three dequeues
			// as one run; the assertions below hold wherever the window is
			// cut.
			burst := appendFrame(nil, 1, OpStats)
			burst = appendFrame(burst, 2, OpDequeueBatch, count)
			burst = appendFrame(burst, 3, OpDequeue)
			burst = appendFrame(burst, 4, OpDequeueBatch, count)
			rc.write(burst)
			if kind, _ := rc.reply(); kind != StatusOK {
				t.Fatalf("stats reply status 0x%02x", kind)
			}
			var got [][]byte
			for i, batch := range []bool{true, false, true} {
				kind, payload := rc.reply()
				if kind != StatusOK {
					t.Fatalf("dequeue reply %d status 0x%02x", i, kind)
				}
				vals := [][]byte{payload}
				if batch {
					var err error
					if vals, err = decodeBatch(payload); err != nil {
						t.Fatal(err)
					}
					if len(vals) == 0 || len(vals) >= n/2 {
						t.Fatalf("batch reply %d shipped %d values; its byte budget should cut it short", i, len(vals))
					}
				}
				for _, v := range vals {
					got = append(got, append([]byte(nil), v...)) // payload aliases the scan buffer
				}
			}
			rc.conn.Close()
			return got
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := shard.New[[]byte](1, shard.WithMaxHandles(8))
			if err != nil {
				t.Fatal(err)
			}
			srv, err := Serve("127.0.0.1:0", q, WithMaxFrame(maxFrame), WithIdleTimeout(tc.idle))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			producer, err := Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer producer.Close()
			for i := 0; i < n; i++ {
				if err := producer.Enqueue(stashValue(i)); err != nil {
					t.Fatal(err)
				}
			}

			got := tc.victim(t, srv.Addr().String())
			if len(got) == 0 || len(got) >= n {
				t.Fatalf("victim received %d of %d values; need a strict subset to exercise the stash", len(got), n)
			}
			// What shipped is the head of the queue, in order.
			for i, v := range got {
				if v[0] != byte(i) {
					t.Fatalf("shipped value %d has tag %d: per-queue order broken", i, v[0])
				}
			}
			stashed := n - len(got)

			// The fabric is empty — every undelivered value lives only in
			// the victim's session — until teardown lands the stash back,
			// visible as the queue's length recovering to the stash size.
			deadline := time.Now().Add(5 * time.Second)
			for q.Len() != stashed {
				if time.Now().After(deadline) {
					t.Fatalf("fabric len %d, want %d re-enqueued after teardown", q.Len(), stashed)
				}
				time.Sleep(10 * time.Millisecond)
			}

			heir, err := Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer heir.Close()
			seen := make(map[byte]int, n)
			for _, v := range got {
				seen[v[0]]++
			}
			for drained := 0; drained < stashed; {
				vs, err := heir.DequeueBatch(n)
				if err != nil {
					t.Fatal(err)
				}
				if len(vs) == 0 {
					t.Fatalf("fabric dry after %d of %d re-enqueued values", drained, stashed)
				}
				for _, v := range vs {
					seen[v[0]]++
					drained++
				}
			}
			if vs, err := heir.DequeueBatch(n); err != nil || len(vs) != 0 {
				t.Fatalf("fabric holds %d values beyond the %d re-enqueued (err %v)", len(vs), stashed, err)
			}
			if len(seen) != n {
				t.Fatalf("conservation broken: %d distinct values across both consumers, want %d", len(seen), n)
			}
			for tag, count := range seen {
				if count != 1 {
					t.Errorf("tag %d delivered %d times across teardown", tag, count)
				}
			}
		})
	}
}

// TestReapWedgedWriter stalls a session in its reply write: the peer
// pipelines dequeues of large values, reads part of the first reply and
// then nothing. The idle timeout's write deadline must reap the session,
// return its lease, and put back every value the peer did not get whole —
// the ones still in the stash and the ones whose reply bytes the failed
// write never handed to the socket — so that what the peer received plus
// what the fabric holds is exactly what was enqueued, each value once.
func TestReapWedgedWriter(t *testing.T) {
	const (
		values    = 64 // one window: the server reads every request before it stalls
		valueSize = 128 << 10
	)
	q, err := shard.New[[]byte](1, shard.WithMaxHandles(4))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q, WithIdleTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < values; i++ {
		v := bytes.Repeat([]byte{'v'}, valueSize)
		v[0] = byte(i)
		if err := h.Enqueue(v); err != nil {
			t.Fatal(err)
		}
	}
	h.Release()
	inUse := q.RegistryStats().InUse

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var burst []byte
	for i := 0; i < values; i++ {
		burst = appendFrame(burst, uint64(i+1), OpDequeue)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1000) // mid-way through the first reply
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}

	for deadline := time.Now().Add(5 * time.Second); srv.Snapshot().Server.SessionsReaped != 1 ||
		q.RegistryStats().InUse != inUse; {
		if time.Now().After(deadline) {
			t.Fatalf("wedged session not reaped: reaped %d, leases in use %d (want %d)",
				srv.Snapshot().Server.SessionsReaped, q.RegistryStats().InUse, inUse)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The server has hung up; what it wrote before the deadline is still on
	// its way. Read it to the end and count the replies that arrived whole.
	rest, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading the reaped session's replies: %v", err)
	}
	br := bufio.NewReader(bytes.NewReader(append(got, rest...)))
	seen := make(map[byte]int, values)
	delivered := 0
	for {
		f, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			break // EOF, or the reply the deadline cut short
		}
		if f.kind != StatusOK || len(f.payload) != valueSize || f.payload[0] != byte(delivered) {
			t.Fatalf("reply %d: status 0x%02x, %d bytes, tag %d", delivered, f.kind, len(f.payload), f.payload[0])
		}
		seen[f.payload[0]]++
		delivered++
	}
	if delivered == values {
		t.Fatal("the peer received every value: the server never wedged")
	}
	if l := q.Len(); l+delivered != values {
		t.Fatalf("fabric holds %d, peer received %d: %d of %d values lost", l, delivered, values-l-delivered, values)
	}
	if n := srv.Snapshot().Server.Dequeues; n != int64(delivered) {
		t.Fatalf("server counts %d values delivered, peer received %d", n, delivered)
	}
	h, err = q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	rest2, _ := h.DequeueBatch(values)
	for _, v := range rest2 {
		seen[v[0]]++
	}
	for tag := 0; tag < values; tag++ {
		if seen[byte(tag)] != 1 {
			t.Errorf("value %d seen %d times across the peer and the fabric", tag, seen[byte(tag)])
		}
	}
}

// TestTeardownAfterFailedBatchWrite: one DEQ_BATCH of MaxBatchOps tiny
// values whose reply the socket refuses. Every value must go back to the
// fabric, in order and not counted as delivered, and the hand-back must
// take time linear in the values: a reply this size handed back one value
// at a time, each shifting the whole stash, costs seconds. The peer is one
// end of a net.Pipe, which buffers nothing, so closing it fails the write.
func TestTeardownAfterFailedBatchWrite(t *testing.T) {
	const values = MaxBatchOps
	q, err := shard.New[[]byte](1, shard.WithMaxHandles(4))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([][]byte, values)
	for i := range vals {
		vals[i] = binary.BigEndian.AppendUint16(nil, uint16(i))
	}
	if err := h.EnqueueBatch(vals); err != nil {
		t.Fatal(err)
	}
	h.Release()
	inUse := q.RegistryStats().InUse

	peer, conn := net.Pipe()
	srv.startSession(conn)
	// The pipe's write returns once the server has read the whole frame.
	if _, err := peer.Write(appendFrame(nil, 1, OpDequeueBatch, binary.BigEndian.AppendUint32(nil, values))); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	peer.Close()
	for q.RegistryStats().InUse != inUse {
		if time.Since(start) > 10*time.Second {
			t.Fatal("session not torn down after its reply's write failed")
		}
		time.Sleep(time.Millisecond)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("teardown took %v to hand back %d values", d, values)
	}
	if n := srv.Snapshot().Server.Dequeues; n != 0 {
		t.Errorf("server counts %d values delivered, peer received none", n)
	}
	h, err = q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	got, _ := h.DequeueBatch(values)
	if len(got) != values {
		t.Fatalf("fabric holds %d values, want %d", len(got), values)
	}
	for i, v := range got {
		if binary.BigEndian.Uint16(v) != uint16(i) {
			t.Fatalf("value %d back in the fabric is tag %d", i, binary.BigEndian.Uint16(v))
		}
	}
}
