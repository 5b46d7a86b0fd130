package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bounded"
	"repro/internal/metrics"
)

// TestGrowCountsMatchBareTree is the portable gate for sizing each shard's
// tree to the leases in use: on a k=1 bounded fabric, a script of single
// operations spread over n leases costs exactly the CAS and writes of the
// same script on a bare bounded queue with the leaf count the fabric grew
// to (4 leaves for 2 leases, 8 for 5), and exactly its reads plus the
// routing's root reads (routingReads), while every shard keeps the GC
// interval G the fabric computes for its cap of 16 slots,
// DefaultGCInterval(17) = 17²·⌈log₂ 17⌉.
func TestGrowCountsMatchBareTree(t *testing.T) {
	const capG = 1445 // bounded.DefaultGCInterval(17)
	if g := bounded.DefaultGCInterval(17); g != capG {
		t.Fatalf("DefaultGCInterval(17) = %d, want %d", g, capG)
	}
	for _, row := range []struct{ leases, leaves int }{{2, 4}, {5, 8}} {
		t.Run(fmt.Sprintf("leases%d", row.leases), func(t *testing.T) {
			q, err := New[int](1, WithBackend(BackendBounded), WithMaxHandles(16))
			if err != nil {
				t.Fatal(err)
			}
			var fabric metrics.Counter
			fhs := make([]subHandle[int], row.leases)
			for i := range fhs {
				h, err := q.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				defer h.Release()
				h.SetCounter(&fabric)
				fhs[i] = fabricOps[int]{h}
			}
			if got := q.ResizeStats().Leaves; got != row.leaves {
				t.Fatalf("%d leases: tree has %d leaves, want %d", row.leases, got, row.leaves)
			}
			for _, s := range q.shards {
				if g := s.(boundedShard[int]).q.GCInterval(); g != capG {
					t.Errorf("shard G = %d, want %d (the cap's)", g, capG)
				}
			}

			bare, err := bounded.New[int](row.leaves, bounded.WithGCInterval(capG))
			if err != nil {
				t.Fatal(err)
			}
			var direct metrics.Counter
			bhs := make([]subHandle[int], row.leases)
			for i := range bhs {
				h, err := bare.Handle(i)
				if err != nil {
					t.Fatal(err)
				}
				h.SetCounter(&direct)
				bhs[i] = h
			}

			countScript(t, fhs)
			countScript(t, bhs)
			f, d := metrics.Summarize(&fabric), metrics.Summarize(&direct)
			routing := int64(row.leases) * routingReads(countDequeues/row.leases)
			if f.Ops == 0 || f.TotalReads != d.TotalReads+routing || f.TotalCAS != d.TotalCAS || f.TotalWrites != d.TotalWrites {
				t.Errorf("fabric %d leases: %v (reads %d, cas %d, writes %d)\nbare %d-leaf tree: %v (reads %d + %d routing, cas %d, writes %d)",
					row.leases, f, f.TotalReads, f.TotalCAS, f.TotalWrites,
					row.leaves, d, d.TotalReads, routing, d.TotalCAS, d.TotalWrites)
			}
		})
	}
}

// fabricOps presents a fabric handle through the sub-queue surface, so the
// same script drives a lease and a bare queue's handle.
type fabricOps[T any] struct{ h *Handle[T] }

func (f fabricOps[T]) EnqueueBatch(vs []T) {
	if err := f.h.EnqueueBatch(vs); err != nil {
		panic(err)
	}
}
func (f fabricOps[T]) DequeueBatchAppend(dst []T, n int) ([]T, int) {
	return f.h.DequeueBatchAppend(dst, n)
}
func (f fabricOps[T]) SetCounter(c *metrics.Counter) { f.h.SetCounter(c) }

// countDequeues is countScript's number of dequeue calls.
const countDequeues = 600

// routingReads is what a handle's dequeue calls read at the fabric's root
// beyond the tree's own reads when its sticky shard never reads empty, as
// on a k=1 fabric that always holds values: one root, two loads, per call,
// except that each call that finds the budget spent reads the two roots of
// a guided attempt instead.
func routingReads(calls int) int64 {
	return int64(2*calls + 2*(calls/(stickyPulls+1)))
}

// countScript prefills 64 values from handle 0, then runs countDequeues
// single enqueue/dequeue pairs rotating over the handles; no dequeue finds
// the queue empty, so only tree work and the routing's root reads are
// counted.
func countScript(t *testing.T, hs []subHandle[int]) {
	one := []int{0}
	for v := 0; v < 64; v++ {
		one[0] = v
		hs[0].EnqueueBatch(one)
	}
	for r := 0; r < countDequeues; r++ {
		one[0] = 64 + r
		hs[r%len(hs)].EnqueueBatch(one)
		if _, got := hs[(r+1)%len(hs)].DequeueBatchAppend(nil, 1); got != 1 {
			t.Fatalf("round %d: dequeue found the queue empty", r)
		}
	}
}

// TestGrowMidStreamConservationFIFO: two producers carry a backlog in their
// home shards when another goroutine's Acquire doubles every shard's tree
// from 4 to 8 leaves, while an operation is held in flight. The held
// operation keeps the growth waiting with the gate closed, so the
// producers and the consumer that start meanwhile wait at the gate: no
// operation completes and Len still reads the backlog. Once the held
// operation exits, the growth runs and everything proceeds: every value
// comes out exactly once and each producer's values in order. Run with
// -race.
func TestGrowMidStreamConservationFIFO(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			backends(t, func(t *testing.T, b Backend) { growMidStream(t, k, b) })
		})
	}
}

func growMidStream(t *testing.T, k int, b Backend) {
	const producers, backlog, perProd = 2, 500, 3000
	q, err := New[int](k, WithBackend(b), WithMaxHandles(8))
	if err != nil {
		t.Fatal(err)
	}
	prods := make([]*Handle[int], producers)
	for p := range prods {
		if prods[p], err = q.Acquire(); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < backlog; s++ {
			if err := prods[p].Enqueue(p*1_000_000 + s); err != nil {
				t.Fatal(err)
			}
		}
	}
	cons, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	held, err := q.Acquire() // slot 3: the last one a 4-leaf tree leases
	if err != nil {
		t.Fatal(err)
	}
	if rs := q.ResizeStats(); rs.Leaves != 4 || rs.LeafGrowths != 0 {
		t.Fatalf("before the 5th lease: %+v, want 4 leaves and no growth", rs)
	}

	held.enter() // an operation in flight
	grown := make(chan *Handle[int])
	go func() { // slot 4 has no leaf in a 4-leaf tree: Acquire grows
		h, err := q.Acquire()
		if err != nil {
			t.Error(err)
		}
		grown <- h
	}()
	for q.growing.Load() == nil {
		runtime.Gosched()
	}

	var (
		wg       sync.WaitGroup
		enqueued atomic.Int64
		dequeued atomic.Int64
		dups     atomic.Int64
	)
	enqueued.Store(producers * backlog)
	for p, h := range prods {
		wg.Add(1)
		go func(p int, h *Handle[int]) {
			defer wg.Done()
			for s := backlog; s < perProd; s++ {
				if err := h.Enqueue(p*1_000_000 + s); err != nil {
					t.Error(err)
					return
				}
				enqueued.Add(1)
			}
		}(p, h)
	}
	total := int64(producers * perProd)
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := make(map[int]bool, total)
		last := make([]int, producers)
		for i := range last {
			last[i] = -1
		}
		for deadline := time.Now().Add(30 * time.Second); dequeued.Load() < total; {
			if time.Now().After(deadline) {
				t.Errorf("consumer gave up after %d of %d values", dequeued.Load(), total)
				return
			}
			v, ok := cons.Dequeue()
			if !ok {
				continue
			}
			if seen[v] {
				dups.Add(1)
			}
			seen[v] = true
			p, s := v/1_000_000, v%1_000_000
			if s <= last[p] {
				t.Errorf("producer %d: %d dequeued after %d (per-producer FIFO broken across the growth)", p, s, last[p])
			}
			last[p] = s
			dequeued.Add(1)
		}
	}()

	// While the held operation runs, the growth waits with the gate closed
	// and every new operation waits at the gate. No event marks "still
	// waiting", so the window is timed; a correct fabric passes however
	// long it is.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-grown:
		t.Fatal("the growing Acquire returned while an operation was in flight")
	default:
	}
	if e, d := enqueued.Load(), dequeued.Load(); e != producers*backlog || d != 0 {
		t.Errorf("%d enqueues and %d dequeues completed while the gate was closed, want none", e-producers*backlog, d)
	}
	if n := q.Len(); n != producers*backlog {
		t.Errorf("Len = %d while the gate was closed, want the %d-value backlog", n, producers*backlog)
	}
	held.exit()
	h := <-grown
	wg.Wait()

	if d := dups.Load(); d != 0 {
		t.Fatalf("%d values dequeued twice", d)
	}
	if n := q.Len(); n != 0 {
		t.Errorf("Len = %d after every value was consumed", n)
	}
	if rs := q.ResizeStats(); rs.Leaves != 8 || rs.LeafGrowths != 1 {
		t.Errorf("ResizeStats = %+v, want 8 leaves after one growth", rs)
	}
	// The shards' Enqueues are their roots' sumEnq, which Grow's root
	// summary carries over: they still count the backlog enqueued before
	// the growth.
	var enqs int64
	for _, st := range q.ShardStats() {
		enqs += st.Enqueues
	}
	if enqs != total {
		t.Errorf("shards count %d enqueues across the growth, want the %d the producers made", enqs, total)
	}
	for _, x := range append(prods, cons, held, h) {
		x.Release()
	}
}

// TestGrowCostIndependentOfBacklog: a growth costs O(k·p) whatever the
// backlog. Three producers fill a fabric, after dequeue batches that took
// null dequeues into their shards, and further leases follow until one
// doubles the trees: that Acquire makes as many heap allocations at a
// backlog of 1,000 values as at growBacklog, and afterwards every value
// comes out exactly once, each producer's in order, with Len exact
// throughout. MemStats.Mallocs is process-wide, so whatever another
// goroutine allocates inside the window counts too; noise only ever adds
// allocations, so each backlog's count is the least over growRuns fabrics.
func TestGrowCostIndependentOfBacklog(t *testing.T) {
	const growRuns = 3
	least := func(t *testing.T, k int, b Backend, backlog int) uint64 {
		n := growAtBacklog(t, k, b, backlog)
		for range growRuns - 1 {
			n = min(n, growAtBacklog(t, k, b, backlog))
		}
		return n
	}
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			backends(t, func(t *testing.T, b Backend) {
				small, large := least(t, k, b, 1_000), least(t, k, b, growBacklog)
				if small != large {
					t.Errorf("the growing Acquire made %d heap allocations at a backlog of 1,000 and %d at %d",
						small, large, growBacklog)
				}
			})
		})
	}
}

// growAtBacklog grows a k-shard fabric that holds backlog values, checks
// that they all come out, and returns the growing Acquire's allocations.
func growAtBacklog(t *testing.T, k int, b Backend, backlog int) uint64 {
	const producers = 3
	q, err := New[int](k, WithBackend(b), WithMaxHandles(8))
	if err != nil {
		t.Fatal(err)
	}
	prods := make([]*Handle[int], producers)
	for p := range prods {
		if prods[p], err = q.Acquire(); err != nil {
			t.Fatal(err)
		}
		defer prods[p].Release()
		// One value and a batch of 8 from the home shard: 7 null dequeues
		// reach its tree.
		if err := prods[p].Enqueue(-1); err != nil {
			t.Fatal(err)
		}
		if _, got := prods[p].DequeueBatch(8); got != 1 {
			t.Fatalf("producer %d: batch took %d values, want 1", p, got)
		}
	}
	for s := 0; s < backlog; s++ {
		p := s % producers
		if err := prods[p].Enqueue(p*1_000_000 + s/producers); err != nil {
			t.Fatal(err)
		}
	}
	var (
		cons    *Handle[int]
		mallocs uint64
	)
	for q.ResizeStats().LeafGrowths == 0 {
		if cons != nil && cons.Slot() >= 7 {
			t.Fatalf("no growth after leasing slot %d", cons.Slot())
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cons, err = q.Acquire()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		defer cons.Release()
		mallocs = m1.Mallocs - m0.Mallocs
	}
	if rs := q.ResizeStats(); rs.Leaves != 8 || rs.LeafGrowths != 1 {
		t.Fatalf("ResizeStats after lease %d = %+v, want 8 leaves after one growth", cons.Slot(), rs)
	}
	if n := q.Len(); n != backlog {
		t.Fatalf("Len = %d after the growth, want %d", n, backlog)
	}
	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	for left := backlog; left > 0; {
		vs, got := cons.DequeueBatch(64)
		if got == 0 {
			t.Fatalf("fabric empty with %d values still owed", left)
		}
		for _, v := range vs {
			p, s := v/1_000_000, v%1_000_000
			if s != last[p]+1 {
				t.Fatalf("producer %d: %d dequeued after %d", p, s, last[p])
			}
			last[p] = s
		}
		left -= got
		if n := q.Len(); n != left {
			t.Fatalf("Len = %d with %d values left", n, left)
		}
	}
	if _, ok := cons.Dequeue(); ok {
		t.Fatal("a value came out beyond the backlog")
	}
	return mallocs
}

// TestGrowAfterClose: consumers lease handles to drain a closed fabric, so
// a lease that outgrows the tree still grows it, and Drain returns every
// element the producers left behind.
func TestGrowAfterClose(t *testing.T) {
	backends(t, func(t *testing.T, b Backend) {
		q, err := New[int](2, WithBackend(b), WithMaxHandles(16))
		if err != nil {
			t.Fatal(err)
		}
		var hs []*Handle[int]
		const per = 300
		for p := 0; p < 4; p++ {
			h, err := q.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < per; s++ {
				h.Enqueue(p*1_000_000 + s)
			}
			hs = append(hs, h)
		}
		q.Close()
		c, err := q.Acquire() // slot 4: grows the closed fabric's tree
		if err != nil {
			t.Fatalf("Acquire on a closed fabric: %v", err)
		}
		if rs := q.ResizeStats(); rs.Leaves != 8 || rs.LeafGrowths != 1 {
			t.Fatalf("ResizeStats after the 5th lease = %+v, want 8 leaves after one growth", rs)
		}
		if err := c.Enqueue(1); !errors.Is(err, ErrClosed) {
			t.Errorf("Enqueue after Close = %v, want ErrClosed", err)
		}
		last := map[int]int{}
		n := c.Drain(func(v int) {
			p, s := v/1_000_000, v%1_000_000
			if prev, ok := last[p]; ok && s <= prev {
				t.Errorf("producer %d: %d drained after %d", p, s, prev)
			}
			last[p] = s
		})
		if n != 4*per {
			t.Errorf("Drain returned %d elements, want %d", n, 4*per)
		}
		for _, h := range append(hs, c) {
			h.Release()
		}
	})
}

// TestGrowSequenceToCap: with the default cap of 16 slots, leasing every
// slot doubles the trees 4 -> 8 -> 16, each step made by the Acquire that
// pops the first slot the current trees have no leaf for, and no further.
func TestGrowSequenceToCap(t *testing.T) {
	q, err := New[int](4, WithMaxHandles(16))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{4: 8, 8: 16}
	leaves := 4
	var hs []*Handle[int]
	for slot := 0; slot < 16; slot++ {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if h.Slot() != slot {
			t.Fatalf("lease %d got slot %d", slot, h.Slot())
		}
		if l, ok := want[slot]; ok {
			leaves = l
		}
		if got := q.ResizeStats().Leaves; got != leaves {
			t.Fatalf("after leasing slot %d: %d leaves, want %d", slot, got, leaves)
		}
		h.Enqueue(slot)
		hs = append(hs, h)
	}
	if _, err := q.Acquire(); !errors.Is(err, ErrNoFreeHandles) {
		t.Fatalf("17th Acquire = %v, want ErrNoFreeHandles", err)
	}
	if rs := q.ResizeStats(); rs.LeafGrowths != 2 {
		t.Errorf("ResizeStats = %+v, want 2 growths", rs)
	}
	// Releasing leases never shrinks the tree.
	for _, h := range hs {
		h.Release()
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if n := h.Drain(nil); n != 16 {
		t.Errorf("drained %d, want 16", n)
	}
	h.Release()
	if got := q.ResizeStats().Leaves; got != 16 {
		t.Errorf("leaves after releasing every lease = %d, want 16", got)
	}
}
