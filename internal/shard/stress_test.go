package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestChurnConservation is the registry + fabric stress test: more
// goroutines than handle slots churn Acquire/Release while enqueueing and
// dequeueing, and at the end the books must balance exactly — every value
// enqueued is dequeued exactly once (by a worker or the final drain), with
// no duplicates, no phantoms, and zero residual.
//
// Run with -race: the test is specifically shaped to catch slot-lease races
// (two goroutines briefly sharing a sub-handle would be a data race on the
// underlying queue's per-process leaf).
func TestChurnConservation(t *testing.T) {
	backends(t, func(t *testing.T, backend Backend) {
		const (
			slots      = 8
			shards     = 4
			opsPerG    = 2000
			leaseOps   = 64 // Release/re-Acquire every leaseOps operations
			goroutines = 24 // 3x oversubscribed vs slots
		)
		q, err := New[int64](shards, WithBackend(backend), WithMaxHandles(slots))
		if err != nil {
			t.Fatal(err)
		}
		var enqTotal, deqTotal, enqSum, deqSum atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				acquire := func() *Handle[int64] {
					for {
						h, err := q.Acquire()
						if err == nil {
							return h
						}
						runtime.Gosched() // all slots leased; wait for churn
					}
				}
				h := acquire()
				rng := rngSeed(g + 1000)
				next := int64(0)
				for op := 0; op < opsPerG; op++ {
					if op%leaseOps == leaseOps-1 {
						h.Release()
						h = acquire()
					}
					if xorshift(&rng)%2 == 0 {
						v := int64(g)<<32 | next
						next++
						if err := h.Enqueue(v); err != nil {
							t.Errorf("goroutine %d: Enqueue: %v", g, err)
							break
						}
						enqTotal.Add(1)
						enqSum.Add(v)
					} else if v, ok := h.Dequeue(); ok {
						deqTotal.Add(1)
						deqSum.Add(v)
					}
				}
				h.Release()
			}(g)
		}
		wg.Wait()

		// Residual check: Len must match the outstanding count, and a final
		// drain must account for every remaining value.
		outstanding := enqTotal.Load() - deqTotal.Load()
		if got := int64(q.Len()); got != outstanding {
			t.Errorf("Len = %d, want %d outstanding", got, outstanding)
		}
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int64]bool)
		drained := int64(h.Drain(func(v int64) {
			if seen[v] {
				t.Errorf("value %d drained twice", v)
			}
			seen[v] = true
			deqSum.Add(v)
		}))
		h.Release()
		if drained != outstanding {
			t.Errorf("drained %d values, want %d", drained, outstanding)
		}
		if got, want := deqSum.Load(), enqSum.Load(); got != want {
			t.Errorf("sum of dequeued values = %d, want %d (phantom or lost value)", got, want)
		}
		if got := q.Len(); got != 0 {
			t.Errorf("Len after full drain = %d, want 0", got)
		}

		// Cross-check against per-shard accounting.
		var shardEnq, shardDeq int64
		for _, st := range q.ShardStats() {
			shardEnq += st.Enqueues
			shardDeq += st.Dequeues
		}
		if shardEnq != enqTotal.Load() {
			t.Errorf("shard enqueue total = %d, want %d", shardEnq, enqTotal.Load())
		}
		if shardDeq != deqTotal.Load()+drained {
			t.Errorf("shard dequeue total = %d, want %d", shardDeq, deqTotal.Load()+drained)
		}
	})
}

// TestConcurrentAcquireRelease hammers the registry alone: every lease must
// be exclusive (no two live handles share a slot) and no slot may leak.
func TestConcurrentAcquireRelease(t *testing.T) {
	const slots = 16
	q, err := New[int](2, WithMaxHandles(slots))
	if err != nil {
		t.Fatal(err)
	}
	var owners [slots]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h, err := q.Acquire()
				if err != nil {
					runtime.Gosched()
					continue
				}
				if !owners[h.Slot()].CompareAndSwap(0, int32(g)+1) {
					t.Errorf("slot %d double-leased", h.Slot())
				}
				owners[h.Slot()].Store(0)
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	if got := q.reg.free(); got != slots {
		t.Errorf("free slots after churn = %d, want %d (leak or corruption)", got, slots)
	}
}

// TestPerProducerOrderConcurrentConsumer checks the fabric's ordering claim
// under concurrent consumption at k >= 2: three producers enqueue while one
// consumer dequeues, and each producer's values must be consumed completely
// and in its own enqueue order, whichever shards the dequeues roam over.
func TestPerProducerOrderConcurrentConsumer(t *testing.T) {
	const (
		producers = 3
		perProd   = 2000
	)
	q, err := New[uint64](2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	lastSeq := make([]int64, producers)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	var consumed sync.WaitGroup
	consumed.Add(producers * perProd)
	wg.Add(1)
	go func() {
		defer wg.Done()
		h, err := q.Acquire()
		if err != nil {
			t.Error(err)
			return
		}
		defer h.Release()
		done := make(chan struct{})
		go func() { consumed.Wait(); close(done) }()
		for {
			select {
			case <-done:
				return
			default:
			}
			if v, ok := h.Dequeue(); ok {
				p, seq := int(v>>32), int64(v&0xffffffff)
				mu.Lock()
				if seq <= lastSeq[p] {
					t.Errorf("producer %d: seq %d after %d", p, seq, lastSeq[p])
				}
				lastSeq[p] = seq
				mu.Unlock()
				consumed.Done()
			}
		}
	}()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h, err := q.Acquire()
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Release()
			for i := 0; i < perProd; i++ {
				if err := h.Enqueue(uint64(p)<<32 | uint64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p, last := range lastSeq {
		if last != perProd-1 {
			t.Errorf("producer %d: last consumed seq %d, want %d", p, last, perProd-1)
		}
	}
}
