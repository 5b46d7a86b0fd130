package bounded

// Batch-path tests for the bounded-space queue. Tiny GC intervals force the
// collection/helping machinery to run constantly under the batch blocks, so
// these exercise exactly the interactions the unbounded variant cannot:
// batch responses published by helpers, and op-counted GC triggers.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBatchSequentialFIFOWithGC(t *testing.T) {
	q, err := New[int](2, WithGCInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		es := make([]int, 5)
		for i := range es {
			es[i] = next
			next++
		}
		h.EnqueueBatch(es)
		h.Enqueue(next)
		next++
		vs, n := h.DequeueBatch(4)
		if n != 4 {
			t.Fatalf("round %d: DequeueBatch(4) count = %d", round, n)
		}
		for _, v := range vs {
			if v != want {
				t.Fatalf("round %d: dequeued %d, want %d", round, v, want)
			}
			want++
		}
	}
	for want < next {
		v, ok := h.Dequeue()
		if !ok || v != want {
			t.Fatalf("drain: Dequeue = (%d,%v), want %d", v, ok, want)
		}
		want++
	}
	if _, n := h.DequeueBatch(8); n != 0 {
		t.Fatalf("DequeueBatch on empty returned %d values", n)
	}
}

func TestBatchSpaceStaysBounded(t *testing.T) {
	q, err := New[int](2, WithGCInterval(16))
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	es := make([]int, 8)
	var maxBlocks int64
	for round := 0; round < 2000; round++ {
		h.EnqueueBatch(es)
		h.DequeueBatch(8)
		if tb := q.TotalBlocks(); tb > maxBlocks {
			maxBlocks = tb
		}
	}
	// The op-counted trigger must keep live blocks independent of the total
	// operation count (32000 ops here); allow generous constant slack.
	if maxBlocks > 400 {
		t.Fatalf("live blocks reached %d across 32000 batched ops; GC not keeping up", maxBlocks)
	}
}

// TestBatchConcurrentConservationWithGC runs producers/consumers with
// batches of up to 40 values, plus one handle that only drains 64 at a time,
// at G=7: helpers constantly publish whole-batch responses, each computed by
// a walk over leaf blocks that other handles are still appending to.
func TestBatchConcurrentConservationWithGC(t *testing.T) {
	const procs = 5
	const perProc = 600
	q, err := New[int64](procs+1, WithGCInterval(7))
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int64, procs+1)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.MustHandle(p)
			rng := rand.New(rand.NewSource(int64(p) + 41))
			enq := int64(0)
			for enq < perProc {
				m := 1 + rng.Intn(40)
				if rng.Intn(2) == 0 {
					es := make([]int64, 0, m)
					for i := 0; i < m && enq < perProc; i++ {
						es = append(es, int64(p)*1_000_000+enq)
						enq++
					}
					h.EnqueueBatch(es)
				} else {
					vs, _ := h.DequeueBatch(m)
					got[p] = append(got[p], vs...)
				}
			}
		}(p)
	}
	var done atomic.Bool
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		h := q.MustHandle(procs)
		for !done.Load() {
			vs, _ := h.DequeueBatch(64)
			got[procs] = append(got[procs], vs...)
		}
	}()
	wg.Wait()
	done.Store(true)
	<-drained
	h := q.MustHandle(0)
	for {
		vs, n := h.DequeueBatch(32)
		if n == 0 {
			break
		}
		got[0] = append(got[0], vs...)
	}
	seen := make(map[int64]bool, procs*perProc)
	for c, vs := range got {
		last := map[int64]int64{}
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
			prod, seq := v/1_000_000, v%1_000_000
			if prev, ok := last[prod]; ok && seq < prev {
				t.Fatalf("consumer %d: producer %d out of order (%d after %d)", c, prod, seq, prev)
			}
			last[prod] = seq
		}
	}
	if len(seen) != procs*perProc {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), procs*perProc)
	}
}
