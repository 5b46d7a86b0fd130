package core

// Tests for the multi-op batch path: one leaf block carrying m operations,
// one propagation pass, responses read leaf block by leaf block.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

func TestBatchSequentialFIFO(t *testing.T) {
	q, err := New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	next := 0
	enq := func(m int) []int {
		es := make([]int, m)
		for i := range es {
			es[i] = next
			next++
		}
		return es
	}
	h.EnqueueBatch(enq(5))
	h.Enqueue(next)
	next++
	h.EnqueueBatch(enq(3))

	want := 0
	vs, got := h.DequeueBatch(4)
	if got != 4 {
		t.Fatalf("DequeueBatch(4) count = %d", got)
	}
	for _, v := range vs {
		if v != want {
			t.Fatalf("dequeued %d, want %d", v, want)
		}
		want++
	}
	for i := 0; i < 2; i++ {
		v, ok := h.Dequeue()
		if !ok || v != want {
			t.Fatalf("Dequeue = (%d,%v), want %d", v, ok, want)
		}
		want++
	}
	// Oversized batch dequeue: the tail is null, count is partial.
	vs, got = h.DequeueBatch(100)
	if got != next-want {
		t.Fatalf("final DequeueBatch count = %d, want %d", got, next-want)
	}
	for _, v := range vs {
		if v != want {
			t.Fatalf("dequeued %d, want %d", v, want)
		}
		want++
	}
	if _, got := h.DequeueBatch(3); got != 0 {
		t.Fatalf("DequeueBatch on empty returned %d values", got)
	}
}

func TestBatchDegenerateSizes(t *testing.T) {
	q, err := New[int](1)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	h.EnqueueBatch(nil)
	h.EnqueueBatch([]int{})
	if vs, n := h.DequeueBatch(0); n != 0 || vs != nil {
		t.Fatalf("DequeueBatch(0) = (%v,%d)", vs, n)
	}
	if vs, n := h.DequeueBatch(-3); n != 0 || vs != nil {
		t.Fatalf("DequeueBatch(-3) = (%v,%d)", vs, n)
	}
	h.EnqueueBatch([]int{7}) // m=1 batch takes the single-element representation
	if v, ok := h.Dequeue(); !ok || v != 7 {
		t.Fatalf("Dequeue = (%d,%v)", v, ok)
	}
}

// TestBatchCallerKeepsSlice verifies EnqueueBatch copies its argument: the
// caller mutating the slice afterwards must not corrupt queued values.
func TestBatchCallerKeepsSlice(t *testing.T) {
	q, err := New[int](1)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	es := []int{1, 2, 3}
	h.EnqueueBatch(es)
	es[0], es[1], es[2] = 100, 200, 300
	vs, n := h.DequeueBatch(3)
	if n != 3 || vs[0] != 1 || vs[1] != 2 || vs[2] != 3 {
		t.Fatalf("dequeued %v, want [1 2 3]", vs)
	}
}

// TestBatchAmortizesBlocks checks the point of the whole exercise: batches
// install strictly fewer blocks per operation than singles.
func TestBatchAmortizesBlocks(t *testing.T) {
	const total = 1024
	blocksPerOp := func(m int) float64 {
		q, err := New[int](4)
		if err != nil {
			t.Fatal(err)
		}
		h := q.MustHandle(0)
		for i := 0; i < total/m; i++ {
			es := make([]int, m)
			h.EnqueueBatch(es)
			h.DequeueBatch(m)
		}
		return float64(q.BlocksInstalled()) / float64(2*total)
	}
	b1, b16 := blocksPerOp(1), blocksPerOp(16)
	if b16 >= b1 {
		t.Errorf("blocks/op did not shrink with batching: m=1 %.3f, m=16 %.3f", b1, b16)
	}
}

// TestBatchConcurrentConservation hammers the batch path from many handles
// under the race detector and checks exact conservation plus per-producer
// FIFO order of the dequeued values. Batches of up to 40 values and one
// handle that only drains 64 at a time make concurrent walks cross several
// leaf blocks and root blocks.
func TestBatchConcurrentConservation(t *testing.T) {
	const procs = 6
	const perProc = 900 // values enqueued per producing handle
	q, err := New[int64](procs + 1)
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
			rng := rand.New(rand.NewSource(int64(p) + 77))
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
		vs, n := h.DequeueBatch(64)
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

// TestBatchCounterAccounting: a batch is one BeginOp/EndBatch unit whose
// ops all land in the counter, with steps attributed once.
func TestBatchCounterAccounting(t *testing.T) {
	q, err := New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	c := &metrics.Counter{}
	h.SetCounter(c)
	h.EnqueueBatch([]int{1, 2, 3, 4})
	if c.Enqueues != 4 {
		t.Fatalf("Enqueues = %d, want 4", c.Enqueues)
	}
	vs, n := h.DequeueBatch(6)
	if n != 4 || len(vs) != 4 {
		t.Fatalf("DequeueBatch = (%v,%d)", vs, n)
	}
	if c.Dequeues != 4 || c.NullDeqs != 2 {
		t.Fatalf("Dequeues=%d NullDeqs=%d, want 4 and 2", c.Dequeues, c.NullDeqs)
	}
	if c.TotalOps() != 10 || c.TotalSteps() == 0 {
		t.Fatalf("TotalOps=%d TotalSteps=%d", c.TotalOps(), c.TotalSteps())
	}
}
