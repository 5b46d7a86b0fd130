package shard

// Batch-path tests for the fabric: home-shard routing of whole batches,
// two-random-choice refill across shards, certified-empty semantics, and
// conservation under concurrent lease churn.

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBatchRoundTripSingleShard(t *testing.T) {
	for _, backend := range []Backend{BackendCore, BackendBounded} {
		t.Run(string(backend), func(t *testing.T) {
			q, err := New[int](1, WithBackend(backend), WithMaxHandles(4), WithGCInterval(8))
			if err != nil {
				t.Fatal(err)
			}
			h, err := q.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer h.Release()
			if err := h.EnqueueBatch([]int{1, 2, 3, 4, 5}); err != nil {
				t.Fatal(err)
			}
			if err := h.Enqueue(6); err != nil {
				t.Fatal(err)
			}
			vs, n := h.DequeueBatch(10)
			if n != 6 {
				t.Fatalf("DequeueBatch(10) count = %d, want 6", n)
			}
			for i, v := range vs {
				if v != i+1 {
					t.Fatalf("vs[%d] = %d, want %d (single-shard FIFO)", i, v, i+1)
				}
			}
			if vs, n := h.DequeueBatch(3); n != 0 || len(vs) != 0 {
				t.Fatalf("DequeueBatch on empty = (%v,%d)", vs, n)
			}
		})
	}
}

// TestBatchSpansShards enqueues through many handles (spreading homes over
// the shards) and drains everything with batch dequeues from one handle:
// the refill path must cross shards until the fabric certifies empty.
func TestBatchSpansShards(t *testing.T) {
	const shards, producers, per = 4, 8, 32
	q, err := New[int](shards, WithMaxHandles(producers+1))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < producers; p++ {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		es := make([]int, per)
		for i := range es {
			es[i] = p*1000 + i
		}
		if err := h.EnqueueBatch(es); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	seen := map[int]bool{}
	lastSeq := map[int]int{} // producer -> last sequence seen
	for {
		vs, n := h.DequeueBatch(13)
		if n == 0 {
			break
		}
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
			p, seq := v/1000, v%1000
			if prev, ok := lastSeq[p]; ok && seq < prev {
				t.Fatalf("producer %d out of order: %d after %d", p, seq, prev)
			}
			lastSeq[p] = seq
		}
	}
	if len(seen) != producers*per {
		t.Fatalf("drained %d values, want %d", len(seen), producers*per)
	}
}

func TestBatchClosedFabric(t *testing.T) {
	q, err := New[int](2, WithMaxHandles(2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if err := h.EnqueueBatch([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if err := h.EnqueueBatch([]int{3, 4}); err != ErrClosed {
		t.Fatalf("EnqueueBatch after Close = %v, want ErrClosed", err)
	}
	if err := h.EnqueueBatch(nil); err != nil {
		t.Fatalf("empty EnqueueBatch after Close = %v, want nil (no-op)", err)
	}
	// Draining a closed fabric still works.
	if vs, n := h.DequeueBatch(4); n != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Fatalf("drain after Close = (%v,%d)", vs, n)
	}
}

// TestBatchChurnConservation runs mixed batch/single traffic through
// short-lived leases on a multi-shard fabric and checks exact conservation
// plus per-producer FIFO. Runs under -race in CI.
func TestBatchChurnConservation(t *testing.T) {
	const workers, leases, perLease = 6, 5, 60
	q, err := New[int64](3, WithMaxHandles(4)) // fewer slots than workers: Acquire contention
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	enqueued := make(map[int64]bool)
	got := make(map[int64]int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for lease := 0; lease < leases; lease++ {
				var h *Handle[int64]
				for {
					var err error
					if h, err = q.Acquire(); err == nil {
						break
					}
				}
				var mine, seen []int64
				enq := int64(0)
				for enq < perLease {
					m := 1 + rng.Intn(7)
					if rng.Intn(2) == 0 {
						es := make([]int64, 0, m)
						for i := 0; i < m && enq < perLease; i++ {
							es = append(es, int64(w)<<40|int64(lease)<<20|enq)
							enq++
						}
						if err := h.EnqueueBatch(es); err != nil {
							t.Errorf("EnqueueBatch: %v", err)
							break
						}
						mine = append(mine, es...)
					} else {
						vs, _ := h.DequeueBatch(m)
						seen = append(seen, vs...)
					}
				}
				h.Release()
				mu.Lock()
				for _, v := range mine {
					enqueued[v] = true
				}
				for _, v := range seen {
					got[v]++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for {
		vs, n := h.DequeueBatch(64)
		if n == 0 {
			break
		}
		for _, v := range vs {
			got[v]++
		}
	}
	h.Release()
	for v, n := range got {
		if n != 1 {
			t.Errorf("value %#x dequeued %d times", v, n)
		}
		if !enqueued[v] {
			t.Errorf("phantom value %#x", v)
		}
	}
	if len(got) != len(enqueued) {
		t.Errorf("recovered %d values, enqueued %d", len(got), len(enqueued))
	}
	stats := q.ShardStats()
	var enq, deq int64
	for _, s := range stats {
		enq += s.Enqueues
		deq += s.Dequeues
	}
	if want := int64(len(enqueued)); enq != want || deq != want {
		t.Errorf("shard tallies enq=%d deq=%d, want %d each", enq, deq, want)
	}
}
