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
// operations spread over n leases costs exactly the steps and CAS of the
// same script on a bare bounded queue with the leaf count the fabric grew
// to (4 leaves for 2 leases, 8 for 5), while every shard keeps the GC
// interval G of the cap (16 slots + 1 maintenance slot: 17²·⌈log₂ 17⌉).
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
			for _, s := range q.topo.Load().shards {
				if g := s.q.(boundedShard[int]).q.GCInterval(); g != capG {
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
			if f.Ops == 0 || f.TotalReads != d.TotalReads || f.TotalCAS != d.TotalCAS || f.TotalWrites != d.TotalWrites {
				t.Errorf("fabric %d leases: %v (reads %d, cas %d, writes %d)\nbare %d-leaf tree: %v (reads %d, cas %d, writes %d)",
					row.leases, f, f.TotalReads, f.TotalCAS, f.TotalWrites,
					row.leaves, d, d.TotalReads, d.TotalCAS, d.TotalWrites)
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

// countScript prefills 64 values from handle 0, then runs single
// enqueue/dequeue pairs rotating over the handles; no dequeue finds the
// queue empty, so only tree work is counted.
func countScript(t *testing.T, hs []subHandle[int]) {
	one := []int{0}
	for v := 0; v < 64; v++ {
		one[0] = v
		hs[0].EnqueueBatch(one)
	}
	for r := 0; r < 600; r++ {
		one[0] = 64 + r
		hs[r%len(hs)].EnqueueBatch(one)
		if _, got := hs[(r+1)%len(hs)].DequeueBatchAppend(nil, 1); got != 1 {
			t.Fatalf("round %d: dequeue found the queue empty", r)
		}
	}
}

// stallGrace makes the grace period of the next topology change wait: an
// unleased slot publishes the current epoch as if an operation were still
// running against it. The returned func ends the stall.
func stallGrace[T any](q *Queue[T], slot int) func() {
	q.slotEpochs[slot].v.Store(q.topo.Load().epoch)
	return func() { q.slotEpochs[slot].v.Store(0) }
}

// TestGrowMidStreamConservationFIFO: two producers carry a backlog in their
// home shards when another goroutine's Acquire grows every shard from 4 to
// 8 leaves, and a consumer runs through the growth. The growth's grace
// period is held open while the producers and the consumer enter the new
// epoch, so every one of them meets the migration: Len must count the
// shards still waiting to drain, each producer's next enqueue must wait
// for its old elements to reach the new shard (per-producer FIFO), a lease
// taken mid-growth must not enqueue ahead of the backlog either, and every
// value must come out exactly once. Run with -race.
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
	cons, err := q.Acquire() // slot 2: the last one a 4-leaf tree leases
	if err != nil {
		t.Fatal(err)
	}
	if rs := q.ResizeStats(); rs.Leaves != 4 || rs.LeafGrowths != 0 {
		t.Fatalf("before the 4th lease: %+v, want 4 leaves and no growth", rs)
	}

	resume := stallGrace(q, 7)
	grown := make(chan *Handle[int])
	go func() { // slot 3 is the 4-leaf tree's maintenance slot: Acquire grows
		h, err := q.Acquire()
		if err != nil {
			t.Error(err)
		}
		grown <- h
	}()
	for q.topo.Load().leaves == 4 {
		runtime.Gosched()
	}
	// Nothing runs yet, so the backlog is all in the retired shards.
	if n := q.Len(); n != producers*backlog {
		t.Fatalf("Len = %d while the grown trees wait for migration, want %d (the retired shards' backlog)",
			n, producers*backlog)
	}

	var (
		wg       sync.WaitGroup
		enqueued atomic.Int64
		dequeued atomic.Int64
		dups     atomic.Int64
	)
	enqueued.Store(producers * backlog)
	fresh, err := q.Acquire() // slot 4 fits the new trees: no second growth
	if err != nil {
		t.Fatal(err)
	}
	var freshDone atomic.Bool
	wg.Add(1)
	go func() { // a third producer, of one value
		defer wg.Done()
		if err := fresh.Enqueue(producers * 1_000_000); err != nil {
			t.Error(err)
		}
		enqueued.Add(1)
		freshDone.Store(true)
	}()
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
	total := int64(producers*perProd + 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := make(map[int]bool, total)
		last := make([]int, producers+1)
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

	// While the grace period is held, nobody may touch a new shard before
	// its old one drains: every producer waits to enqueue, and the consumer
	// finds the new shards empty and waits. No event marks "still waiting",
	// so the window is timed; a correct fabric passes however long it is.
	time.Sleep(20 * time.Millisecond)
	if freshDone.Load() {
		t.Errorf("a lease taken mid-growth enqueued before the backlog was migrated")
	}
	if e, d := enqueued.Load(), dequeued.Load(); e != producers*backlog || d != 0 {
		t.Errorf("%d enqueues and %d dequeues completed during the migration's grace period, want none", e-producers*backlog, d)
	}
	if n := q.Len(); n != producers*backlog {
		t.Errorf("Len = %d during the grace period, want %d (the retired shards' backlog)", n, producers*backlog)
	}
	resume()
	h := <-grown
	wg.Wait()

	if d := dups.Load(); d != 0 {
		t.Fatalf("%d values dequeued twice", d)
	}
	if n := q.Len(); n != 0 {
		t.Errorf("Len = %d after every value was consumed", n)
	}
	rs := q.ResizeStats()
	if rs.Leaves != 8 || rs.LeafGrowths != 1 || rs.Epoch != 2 {
		t.Errorf("ResizeStats = %+v, want 8 leaves after one growth at epoch 2", rs)
	}
	if rs.Migrated != producers*backlog {
		t.Errorf("Migrated = %d, want the %d-value backlog", rs.Migrated, producers*backlog)
	}
	for _, x := range append(prods, cons, fresh, h) {
		x.Release()
	}
	for _, st := range q.ShardStats() {
		if st.Enqueues-st.Dequeues != int64(st.Len) {
			t.Errorf("shard %d audit broken across the growth: enq %d - deq %d != len %d",
				st.Shard, st.Enqueues, st.Dequeues, st.Len)
		}
	}
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
		for p := 0; p < 3; p++ {
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
		c, err := q.Acquire() // slot 3: grows the closed fabric's tree
		if err != nil {
			t.Fatalf("Acquire on a closed fabric: %v", err)
		}
		if rs := q.ResizeStats(); rs.Leaves != 8 || rs.LeafGrowths != 1 {
			t.Fatalf("ResizeStats after the 4th lease = %+v, want 8 leaves after one growth", rs)
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
		if n != 3*per {
			t.Errorf("Drain returned %d elements, want %d", n, 3*per)
		}
		for _, h := range append(hs, c) {
			h.Release()
		}
	})
}

// TestGrowSequenceToCap: with the default cap of 16 slots, leasing every
// slot grows the tree 4 -> 8 -> 16 -> 17, each step made by the Acquire
// that pops the current tree's maintenance slot, and no further.
func TestGrowSequenceToCap(t *testing.T) {
	q, err := New[int](4, WithMaxHandles(16))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{3: 8, 7: 16, 15: 17}
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
	if rs := q.ResizeStats(); rs.LeafGrowths != 3 || rs.Epoch != 4 {
		t.Errorf("ResizeStats = %+v, want 3 growths, epoch 4", rs)
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
	if got := q.ResizeStats().Leaves; got != 17 {
		t.Errorf("leaves after releasing every lease = %d, want 17", got)
	}
}

// TestGrowSetCounterNilSurvivesRefresh: a lease's SetCounter choice on a
// WithShardMetrics fabric outlives the refresh onto a grown epoch — an
// explicit nil keeps accounting disabled rather than being replaced by
// fresh per-shard counters, and a set counter keeps receiving the lease's
// work on the new epoch's sub-handles.
func TestGrowSetCounterNilSurvivesRefresh(t *testing.T) {
	q, err := New[int](1, WithMaxHandles(4), WithShardMetrics())
	if err != nil {
		t.Fatal(err)
	}
	off, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	off.SetCounter(nil) // explicitly disable accounting for this lease
	own, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	c := &metrics.Counter{}
	own.SetCounter(c)
	var idle []*Handle[int]
	for i := 0; i < 2; i++ { // the 4th lease grows the trees
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		idle = append(idle, h)
	}
	if rs := q.ResizeStats(); rs.LeafGrowths != 1 {
		t.Fatalf("ResizeStats = %+v, want one growth", rs)
	}
	const per = 50
	for _, h := range []*Handle[int]{off, own} {
		for i := 0; i < per; i++ {
			h.Enqueue(i)
		}
	}
	off.Drain(nil)
	for _, h := range append(idle, off, own) {
		h.Release()
	}
	for j, s := range q.ShardSummaries() {
		if s.Ops != 0 {
			t.Errorf("shard %d: %d ops tallied after SetCounter, want 0", j, s.Ops)
		}
	}
	// own's enqueues plus off's drain: 2*per dequeues and the null that
	// ends it never reach c.
	if got := c.TotalOps(); got != per {
		t.Errorf("set counter recorded %d ops after the growth, want %d", got, per)
	}
}

// TestGrowShardSummariesSurvive: cost-model work and traffic tallies
// recorded against the shards a tree growth retires are inherited by
// their successors, not dropped with the retired states, and the growth's
// drain is not counted as traffic.
func TestGrowShardSummariesSurvive(t *testing.T) {
	q, err := New[int](4, WithMaxHandles(4), WithShardMetrics())
	if err != nil {
		t.Fatal(err)
	}
	const per = 100
	for i := 0; i < 3; i++ { // homes 0..2 round-robin
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < per; s++ {
			h.Enqueue(s)
		}
		h.Release() // folds tallies + counters into the epoch-1 states
	}
	var opsBefore int64
	for _, s := range q.ShardSummaries() {
		opsBefore += s.Ops
	}
	if opsBefore != 3*per {
		t.Fatalf("ops before the growth = %d, want %d", opsBefore, 3*per)
	}
	var hs []*Handle[int]
	for i := 0; i < 4; i++ { // slots 0..2 recycled, then slot 3 grows the trees
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if rs := q.ResizeStats(); rs.LeafGrowths != 1 || rs.Migrated != 3*per {
		t.Fatalf("ResizeStats = %+v, want one growth migrating %d values", rs, 3*per)
	}
	for _, h := range hs {
		h.Release()
	}
	var opsAfter int64
	for _, s := range q.ShardSummaries() {
		opsAfter += s.Ops
	}
	if opsAfter != opsBefore {
		t.Errorf("ops after the growth = %d, want %d (retired shards' summaries dropped)", opsAfter, opsBefore)
	}
	for _, st := range q.ShardStats() {
		want := int64(per)
		if st.Shard == 3 {
			want = 0
		}
		if st.Enqueues != want || st.Dequeues != 0 || st.Len != int(want) {
			t.Errorf("shard %d after the growth: enq %d deq %d len %d, want enq %d deq 0 len %d",
				st.Shard, st.Enqueues, st.Dequeues, st.Len, want, want)
		}
	}
}
