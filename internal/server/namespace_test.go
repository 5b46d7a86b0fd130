package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestOpenDeleteBasics exercises the namespace handshake: ids are stable
// per name, create-on-first-use, never reused after delete, and the
// default queue is protected.
func TestOpenDeleteBasics(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)

	a, err := c.Open("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == 0 {
		t.Fatalf("named queue got the reserved id 0")
	}
	a2, err := c.Open("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if a2.ID() != a.ID() {
		t.Fatalf("re-open of %q: id %d, want %d", "alpha", a2.ID(), a.ID())
	}
	b, err := c.Open("beta")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID() == a.ID() {
		t.Fatalf("distinct names share id %d", b.ID())
	}

	// The reserved name binds queue 0.
	def, err := c.Open(DefaultQueueName)
	if err != nil {
		t.Fatal(err)
	}
	if def.ID() != 0 {
		t.Fatalf("Open(%q) = id %d, want 0", DefaultQueueName, def.ID())
	}
	if err := c.Delete(DefaultQueueName); err == nil {
		t.Fatal("deleting the default queue succeeded")
	}

	if err := c.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("alpha"); err == nil {
		t.Fatal("double delete succeeded")
	}
	// Stale ids must not resolve to the recreated queue: this session was
	// bound to the deleted tenant before the delete, so it sees the closed
	// fabric; a session binding the id fresh would see "unknown queue".
	// Either way the recreated queue must stay untouched.
	a3, err := c.Open("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if a3.ID() == a.ID() {
		t.Fatalf("recreated queue reused id %d", a.ID())
	}
	if err := a.Enqueue([]byte("stale")); err == nil {
		t.Fatal("enqueue via stale id succeeded")
	}
	if _, ok, err := a3.Dequeue(); err != nil || ok {
		t.Fatalf("recreated queue not empty after stale-id enqueue (ok=%v err=%v)", ok, err)
	}
	cFresh := newTestClient(t, srv)
	freshStale := &NamedQueue{c: cFresh, id: a.ID(), name: "alpha"}
	if err := freshStale.Enqueue([]byte("stale")); err == nil || !strings.Contains(err.Error(), "unknown queue") {
		t.Fatalf("fresh session, stale id: err = %v, want unknown queue", err)
	}

	if _, err := c.Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
	if _, err := c.Open(strings.Repeat("x", MaxQueueName+1)); err == nil {
		t.Fatal("oversized name succeeded")
	}
}

// TestNamedQueueIsolation checks that values never cross queues: two
// tenants plus the default queue, interleaved on one connection and read
// back from another.
func TestNamedQueueIsolation(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)

	jobs, err := c.Open("jobs")
	if err != nil {
		t.Fatal(err)
	}
	logs, err := c.Open("logs")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := jobs.Enqueue([]byte(fmt.Sprintf("job-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := logs.Enqueue([]byte(fmt.Sprintf("log-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.Enqueue([]byte(fmt.Sprintf("def-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := jobs.Len(); err != nil || n != 50 {
		t.Fatalf("jobs.Len = (%d, %v), want 50", n, err)
	}

	// A second connection sees the same queues under the same names, each
	// in per-producer FIFO order, with no cross-queue leakage.
	c2 := newTestClient(t, srv)
	jobs2, err := c2.Open("jobs")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v, ok, err := jobs2.Dequeue()
		if err != nil || !ok {
			t.Fatalf("jobs dequeue %d: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("job-%d", i); string(v) != want {
			t.Fatalf("jobs dequeue %d = %q, want %q", i, v, want)
		}
	}
	if _, ok, err := jobs2.Dequeue(); err != nil || ok {
		t.Fatalf("jobs not empty after 50 dequeues (ok=%v err=%v)", ok, err)
	}
	vs, err := c2.DequeueBatch(100) // default queue
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 50 {
		t.Fatalf("default queue held %d values, want 50", len(vs))
	}
	for _, v := range vs {
		if !bytes.HasPrefix(v, []byte("def-")) {
			t.Fatalf("default queue leaked foreign value %q", v)
		}
	}

	snap := srv.Snapshot()
	if snap.Server.QueuesOpen != 3 {
		t.Fatalf("QueuesOpen = %d, want 3", snap.Server.QueuesOpen)
	}
	byName := map[string]QueueStat{}
	for _, qs := range snap.Queues {
		byName[qs.Name] = qs
	}
	if qs := byName["jobs"]; qs.Enqueues != 50 || qs.Dequeues != 50 {
		t.Fatalf("jobs stats = %+v, want 50/50", qs)
	}
	if qs := byName["logs"]; qs.Enqueues != 50 || qs.Dequeues != 0 || qs.Len != 50 {
		t.Fatalf("logs stats = %+v, want enq 50, deq 0, len 50", qs)
	}
}

// TestMaxQueues verifies the named-queue cap and that deletion frees
// capacity.
func TestMaxQueues(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil, WithMaxQueues(2))
	c := newTestClient(t, srv)
	if _, err := c.Open("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("c"); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("third open: err = %v, want limit error", err)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("c"); err != nil {
		t.Fatalf("open after delete: %v", err)
	}
}

// TestQueueIdleTeardown verifies the idle reaper: a named queue with no
// bound session and no backlog is torn down and recreated fresh, while a
// queue still holding values survives.
func TestQueueIdleTeardown(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil, WithQueueIdleTimeout(50*time.Millisecond))
	c := newTestClient(t, srv)
	empty, err := c.Open("empty")
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Open("full")
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Enqueue([]byte("keep me")); err != nil {
		t.Fatal(err)
	}
	emptyID, fullID := empty.ID(), full.ID()
	c.Close() // unbind both; their idle clocks start now

	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.ns.reapIdle(time.Now().Add(-50*time.Millisecond)) > 0 || srv.Snapshot().Server.QueuesExpired > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle queue never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	c2 := newTestClient(t, srv)
	reopened, err := c2.Open("empty")
	if err != nil {
		t.Fatal(err)
	}
	if reopened.ID() == emptyID {
		t.Fatalf("idle-expired queue kept its id %d", emptyID)
	}
	survivor, err := c2.Open("full")
	if err != nil {
		t.Fatal(err)
	}
	if survivor.ID() != fullID {
		t.Fatalf("non-empty queue was reaped (id %d -> %d)", fullID, survivor.ID())
	}
	if v, ok, err := survivor.Dequeue(); err != nil || !ok || string(v) != "keep me" {
		t.Fatalf("survivor value = (%q, %v, %v)", v, ok, err)
	}
}

// TestOpenDeleteChurnConservation churns the namespace under -race: every
// worker owns a private queue (strict per-queue conservation) while all
// workers fight over a shared queue that is repeatedly deleted and
// recreated. Private queues must conserve exactly; the shared queue's
// deletions are explicit data loss and only sanity-checked.
func TestOpenDeleteChurnConservation(t *testing.T) {
	const (
		workers = 6
		rounds  = 4
		perConn = 60
	)
	srv, _ := newTestServer(t, 2, nil, WithMaxQueues(workers+4))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("private-%d", w)
			for r := 0; r < rounds; r++ {
				c, err := Dial(srv.Addr().String())
				if err != nil {
					t.Error(err)
					return
				}
				q, err := c.Open(name)
				if err != nil {
					t.Errorf("worker %d open: %v", w, err)
					c.Close()
					return
				}
				seen := make(map[string]int)
				for i := 0; i < perConn; i++ {
					key := fmt.Sprintf("w%d-r%d-i%d", w, r, i)
					if err := q.Enqueue([]byte(key)); err != nil {
						t.Errorf("worker %d enqueue: %v", w, err)
						c.Close()
						return
					}
					// Interleave churn on the shared queue. Deletion racing
					// an open is fine; racing ops surface as request-scoped
					// errors ("unknown queue" / closed), never as corruption.
					if i%20 == 10 {
						if sq, err := c.Open("shared"); err == nil {
							sq.Enqueue([]byte("noise"))
							if w%2 == 0 {
								sq.Delete()
							}
						}
					}
				}
				// Drain the private queue completely: exact conservation.
				for len(seen) < perConn {
					v, ok, err := q.Dequeue()
					if err != nil {
						t.Errorf("worker %d dequeue: %v", w, err)
						c.Close()
						return
					}
					if !ok {
						t.Errorf("worker %d: queue empty with %d/%d values seen", w, len(seen), perConn)
						c.Close()
						return
					}
					if !strings.HasPrefix(string(v), fmt.Sprintf("w%d-", w)) {
						t.Errorf("worker %d: foreign value %q in private queue", w, v)
					}
					seen[string(v)]++
				}
				for k, n := range seen {
					if n != 1 {
						t.Errorf("worker %d: value %q seen %d times", w, k, n)
					}
				}
				c.Close()
			}
		}(w)
	}
	wg.Wait()

	// Session teardown is asynchronous to Client.Close; wait for the
	// server to finish before asserting every lease was returned.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().Server.SessionsOpen > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions never drained: %d open", srv.Snapshot().Server.SessionsOpen)
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := srv.Snapshot()
	for _, qs := range snap.Queues {
		if qs.Sessions != 0 {
			t.Errorf("queue %q still has %d bound sessions", qs.Name, qs.Sessions)
		}
	}
	if snap.Server.QueuesDeleted == 0 {
		t.Error("shared-queue churn produced no deletions")
	}
}

// TestQualifiedCoalescing pipelines many qualified enqueues on one
// connection and checks they were coalesced into multi-op fabric batches,
// i.e. the executor treats same-queue runs like default-queue runs.
func TestQualifiedCoalescing(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil, WithWindow(512))
	c := newTestClient(t, srv)
	q, err := c.Open("bulk")
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := q.Enqueue(u64(uint64(i))); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := make(map[uint64]bool)
	for {
		v, ok, err := q.Dequeue()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got[binary.BigEndian.Uint64(v)] = true
	}
	if len(got) != n {
		t.Fatalf("drained %d distinct values, want %d", len(got), n)
	}
	st := srv.Snapshot().Server
	if st.FabricBatches == 0 {
		t.Error("no multi-op fabric calls recorded for qualified traffic")
	}
	if st.OpsPerBatch <= 1.0 {
		t.Errorf("ops/batch = %.2f; pipelined qualified enqueues never coalesced", st.OpsPerBatch)
	}
}

// TestUndefinedQualifiedOpcodes sends flag-bearing bytes that are NOT
// defined qualified opcodes (0x14 would alias STATS, 0x17 OPEN, 0x18
// DELETE if the flag were stripped blindly), plus the retired RESIZE
// opcodes 0x09 and 0x19: each must be rejected as unknown, and in
// particular 0x17 must not create a queue.
func TestUndefinedQualifiedOpcodes(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	payload := append([]byte{0, 0, 0, 1}, []byte("ghost")...) // plausible qid + name
	kinds := []byte{0x14, 0x17, 0x18, 0x1f, 0x09, 0x19}
	for i, kind := range kinds {
		if err := writeFrame(bw, uint64(i+1), kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := range kinds {
		f, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if f.kind != StatusErr || !strings.Contains(string(f.payload), "unknown opcode") {
			t.Fatalf("reply %d = kind 0x%02x %q, want unknown-opcode ERR", i, f.kind, f.payload)
		}
	}
	if n := srv.Snapshot().Server.QueuesOpen; n != 1 {
		t.Fatalf("undefined opcode created a queue: %d open, want 1", n)
	}
}

// TestSnapshotQueueJSONRoundTrip pins the per-queue stats JSON encoding:
// /statsz consumers parse these fields by name.
func TestSnapshotQueueJSONRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)
	q, err := c.Open("audit")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue([]byte("x")); err != nil {
		t.Fatal(err)
	}
	data, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Queues) != 2 {
		t.Fatalf("snapshot holds %d queues, want 2", len(snap.Queues))
	}
	if snap.Queues[0].ID != 0 || snap.Queues[0].Name != DefaultQueueName {
		t.Fatalf("queue 0 = %+v, want the default queue first", snap.Queues[0])
	}
	audit := snap.Queues[1]
	if audit.Name != "audit" || audit.Enqueues != 1 || audit.Len != 1 || audit.Sessions != 1 {
		t.Fatalf("audit stats = %+v", audit)
	}
	if snap.Server.QueuesOpened != 1 {
		t.Fatalf("QueuesOpened = %d, want 1", snap.Server.QueuesOpened)
	}
	// Topology state rides every per-queue entry. One session leases one
	// handle: the trees are still the 4-leaf ones a fabric starts with.
	if audit.Shards != 2 || audit.Leaves != 4 || audit.LeafGrowths != 0 {
		t.Fatalf("audit topology stats = %+v, want 2 shards, 4 leaves, no growth", audit)
	}
	// The raw JSON must use the stable field names.
	for _, key := range []string{`"queues_open"`, `"queues_opened"`, `"queues_deleted"`, `"queues_expired"`,
		`"queues"`, `"sessions"`, `"shards"`, `"leaves"`, `"leaf_growths"`,
		`"empty_dequeues"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("stats JSON lacks %s", key)
		}
	}
}

// TestNamedHandleExhaustion checks that an exhausted per-queue registry is
// a request-scoped error on that queue only — the session and its other
// queues keep working.
func TestNamedHandleExhaustion(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil, WithQueueFactory(func() (*shard.Queue[[]byte], error) {
		return shard.New[[]byte](1, shard.WithMaxHandles(1))
	}))
	c1 := newTestClient(t, srv)
	q1, err := c1.Open("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if err := q1.Enqueue([]byte("v")); err != nil { // takes the only slot
		t.Fatal(err)
	}
	c2 := newTestClient(t, srv)
	q2, err := c2.Open("tiny") // open succeeds: no lease needed yet
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.Enqueue([]byte("w")); err == nil || !strings.Contains(err.Error(), "leased") {
		t.Fatalf("enqueue on exhausted queue: err = %v, want lease exhaustion", err)
	}
	if err := c2.Enqueue([]byte("default still works")); err != nil {
		t.Fatalf("default queue broken by named exhaustion: %v", err)
	}
	// Releasing the first session frees the slot for the second.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := q2.Enqueue([]byte("w")); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
