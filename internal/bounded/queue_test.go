package bounded

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

func TestNewValidation(t *testing.T) {
	if _, err := New[int](0); err == nil {
		t.Error("New(0) succeeded")
	}
	if _, err := New[int](2, WithGCInterval(0)); err == nil {
		t.Error("New with GC interval 0 succeeded")
	}
	q, err := New[int](4)
	if err != nil {
		t.Fatal(err)
	}
	if q.GCInterval() != 32 { // p^2 * ceil(log2 p) = 16*2
		t.Errorf("default GC interval = %d, want 32", q.GCInterval())
	}
}

// TestTreeShape pins the ordering tree's shape: exactly max(p, 2) leaves in
// 1-indexed heap order (node i's children are 2i and 2i+1), every leaf at
// depth floor or ceil of log2 of the leaf count, so the height is
// ceil(log2 max(p, 2)), and handle i on node max(p, 2)+i.
func TestTreeShape(t *testing.T) {
	for p := 1; p <= 70; p++ {
		q, err := New[int](p)
		if err != nil {
			t.Fatal(err)
		}
		leaves := max(p, 2)
		lo, hi := bits.Len(uint(leaves))-1, bits.Len(uint(leaves-1))
		heap, height := map[*node]int{}, 0
		var walk func(n *node, v, depth int)
		walk = func(n *node, v, depth int) {
			heap[n] = v
			if !n.isLeaf() {
				if n.left.parent != n || n.right.parent != n {
					t.Errorf("p=%d: node %d's children do not point back at it", p, v)
				}
				walk(n.left, 2*v, depth+1)
				walk(n.right, 2*v+1, depth+1)
				return
			}
			if depth < lo || depth > hi {
				t.Errorf("p=%d: leaf %d at depth %d, want %d..%d", p, v, depth, lo, hi)
			}
			height = max(height, depth)
		}
		walk(q.root.Load(), 1, 0)
		if len(heap) != 2*leaves-1 {
			t.Errorf("p=%d: %d nodes, want %d", p, len(heap), 2*leaves-1)
		}
		if height != hi {
			t.Errorf("p=%d: height %d, want %d", p, height, hi)
		}
		for i := range p {
			if got := heap[q.handles[i].leaf]; got != leaves+i {
				t.Errorf("p=%d: handle %d on node %d, want %d", p, i, got, leaves+i)
			}
		}
	}
}

func TestFIFOSingleHandle(t *testing.T) {
	q, _ := New[int](2)
	h := q.MustHandle(0)
	for i := 0; i < 200; i++ {
		h.Enqueue(i)
	}
	for i := 0; i < 200; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("queue not empty after drain")
	}
}

func TestEmptyDequeue(t *testing.T) {
	q, _ := New[string](2)
	h := q.MustHandle(1)
	if v, ok := h.Dequeue(); ok || v != "" {
		t.Fatalf("Dequeue on empty = (%q, %v)", v, ok)
	}
}

func TestRandomAgainstModelSequentialSmallG(t *testing.T) {
	// A tiny GC interval forces constant garbage collection, exercising the
	// discarded-block paths under a deterministic sequential schedule.
	for _, g := range []int64{2, 3, 5, 64} {
		for _, procs := range []int{1, 2, 3, 8} {
			g, procs := g, procs
			t.Run(fmt.Sprintf("G=%d/procs=%d", g, procs), func(t *testing.T) {
				q, err := New[int](procs, WithGCInterval(g))
				if err != nil {
					t.Fatal(err)
				}
				var model []int
				rng := rand.New(rand.NewSource(int64(g)*100 + int64(procs)))
				next := 0
				for step := 0; step < 4000; step++ {
					h := q.MustHandle(rng.Intn(procs))
					if rng.Intn(2) == 0 {
						h.Enqueue(next)
						model = append(model, next)
						next++
						continue
					}
					got, gotOK := h.Dequeue()
					var want int
					wantOK := len(model) > 0
					if wantOK {
						want, model = model[0], model[1:]
					}
					if gotOK != wantOK || (gotOK && got != want) {
						t.Fatalf("step %d: Dequeue = (%d, %v), model (%d, %v)",
							step, got, gotOK, want, wantOK)
					}
				}
			})
		}
	}
}

func TestMatchesUnboundedOnIdenticalSchedule(t *testing.T) {
	// Replay one pseudo-random schedule of operations on both queue
	// variants; being deterministic sequentially, they must agree exactly.
	const procs = 5
	bq, err := New[int](procs, WithGCInterval(7))
	if err != nil {
		t.Fatal(err)
	}
	uq, err := core.New[int](procs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	next := 0
	for step := 0; step < 6000; step++ {
		p := rng.Intn(procs)
		bh := bq.MustHandle(p)
		uh := uq.MustHandle(p)
		if rng.Intn(3) == 0 {
			bh.Enqueue(next)
			uh.Enqueue(next)
			next++
			continue
		}
		bv, bok := bh.Dequeue()
		uv, uok := uh.Dequeue()
		if bv != uv || bok != uok {
			t.Fatalf("step %d: bounded (%d,%v) vs unbounded (%d,%v)", step, bv, bok, uv, uok)
		}
	}
	if bq.Len() != uq.Len() {
		t.Fatalf("Len mismatch: bounded %d, unbounded %d", bq.Len(), uq.Len())
	}
}

func TestSpaceStaysBounded(t *testing.T) {
	// Run far more operations than the space bound and verify trees do not
	// grow with the operation count (Theorem 31: O(q_max + p^2 log p + G)
	// blocks per node; with queue size <= qmax and fixed p, block counts
	// must plateau).
	const procs = 4
	const g = 16
	q, err := New[int](procs, WithGCInterval(g))
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	const qmax = 8
	var worst int64
	for round := 0; round < 3000; round++ {
		for i := 0; i < qmax; i++ {
			h.Enqueue(round*qmax + i)
		}
		for i := 0; i < qmax; i++ {
			if _, ok := h.Dequeue(); !ok {
				t.Fatalf("round %d: unexpected empty", round)
			}
		}
		if round%100 == 0 {
			if total := q.TotalBlocks(); total > worst {
				worst = total
			}
		}
	}
	// 3000*8 = 24000 enqueues total. Without GC the leaf alone would hold
	// ~48000 blocks. The bound for these parameters is a few hundred.
	if worst > 2000 {
		t.Fatalf("block count grew to %d; GC is not bounding space", worst)
	}
	t.Logf("worst-case total live blocks: %d (after %d ops)", worst, 3000*qmax*2)
}

func TestConcurrentMultisetWithGC(t *testing.T) {
	const procs = 8
	const perHandle = 1500
	q, err := New[int64](procs, WithGCInterval(8))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([][]int64, procs)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := q.MustHandle(i)
			rng := rand.New(rand.NewSource(int64(i)))
			enq := int64(0)
			for enq < perHandle {
				if rng.Intn(2) == 0 {
					h.Enqueue(int64(i)*1_000_000 + enq)
					enq++
				} else if v, ok := h.Dequeue(); ok {
					got[i] = append(got[i], v)
				}
			}
		}(i)
	}
	wg.Wait()
	h := q.MustHandle(0)
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		got[0] = append(got[0], v)
	}
	seen := make(map[int64]bool)
	for _, vs := range got {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != procs*perHandle {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), procs*perHandle)
	}
}

func TestConcurrentProducerConsumerFIFO(t *testing.T) {
	const producers, consumers = 4, 4
	const perProducer = 2000
	q, err := New[int64](producers+consumers, WithGCInterval(32))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([][]int64, consumers)
	var mu sync.Mutex
	totalConsumed := 0
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := q.MustHandle(i)
			for s := int64(0); s < perProducer; s++ {
				h.Enqueue(int64(i)*1_000_000 + s)
			}
		}(i)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := q.MustHandle(producers + c)
			for {
				mu.Lock()
				done := totalConsumed >= producers*perProducer
				mu.Unlock()
				if done {
					return
				}
				if v, ok := h.Dequeue(); ok {
					results[c] = append(results[c], v)
					mu.Lock()
					totalConsumed++
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < consumers; c++ {
		last := map[int64]int64{}
		for _, v := range results[c] {
			prod, seq := v/1_000_000, v%1_000_000
			if prev, ok := last[prod]; ok && seq < prev {
				t.Fatalf("consumer %d: producer %d out of order (%d after %d)", c, prod, seq, prev)
			}
			last[prod] = seq
		}
	}
}

func TestLenTracksSize(t *testing.T) {
	q, _ := New[int](2, WithGCInterval(4))
	h := q.MustHandle(0)
	for i := 0; i < 30; i++ {
		h.Enqueue(i)
	}
	if got := q.Len(); got != 30 {
		t.Fatalf("Len = %d", got)
	}
	for i := 0; i < 12; i++ {
		h.Dequeue()
	}
	if got := q.Len(); got != 18 {
		t.Fatalf("Len = %d", got)
	}
}

func TestBoundedStepComplexityBound(t *testing.T) {
	// Numeric guardrail from Theorem 32: with this implementation's
	// constants, amortized steps per operation stay under
	// 40*(lg p + 1)*(lg(p+q) + 1) + 60 on a pairs workload (q stays O(p)).
	// A regression that made GC or searches linear in p or in history
	// length would blow far past it.
	for _, procs := range []int{2, 4, 8, 16, 32} {
		q, err := New[int64](procs)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		counters := make([]*metrics.Counter, procs)
		for p := 0; p < procs; p++ {
			counters[p] = &metrics.Counter{}
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				h := q.MustHandle(p)
				h.SetCounter(counters[p])
				for s := int64(0); s < 500; s++ {
					h.Enqueue(s)
					h.Dequeue()
				}
			}(p)
		}
		wg.Wait()
		sum := metrics.Summarize(counters...)
		lg := 1.0
		for 1<<int(lg) < procs {
			lg++
		}
		bound := 40*(lg+1)*(lg+1) + 60
		if sum.StepsPerOp > bound {
			t.Errorf("procs=%d: %.1f steps/op exceeds guardrail %.0f", procs, sum.StepsPerOp, bound)
		}
	}
}

// TestLenCoversCompletedOps pins what the shard fabric's root-read null
// relies on: Len is never older than the root block of an operation that
// has returned. Len reads the block below the root's head, and a Refresh
// installs a block with one CAS and advances the head with another, so
// there is a window between install and visibility, as in core (see its
// test of the same name).
func TestLenCoversCompletedOps(t *testing.T) {
	t.Run("concurrent", lenCoversConcurrentEnqueues)
	t.Run("stalled-installer", lenCoversStalledInstaller)
}

// lenCoversConcurrentEnqueues runs p enqueuers and no dequeuers: completed
// is bumped after each Enqueue returns and read before each Len, so
// Len() >= completed must hold at every check.
func lenCoversConcurrentEnqueues(t *testing.T) {
	const p, perProc = 6, 3000
	q, err := New[int](p, WithGCInterval(7)) // GC phases drop root blocks under the readers
	if err != nil {
		t.Fatal(err)
	}
	var completed atomic.Int64
	var wg sync.WaitGroup
	for proc := 0; proc < p; proc++ {
		wg.Add(1)
		go func(h *Handle[int]) {
			defer wg.Done()
			for i := 1; i <= perProc; i++ {
				h.Enqueue(i)
				completed.Add(1)
				if want, got := completed.Load(), int64(q.Len()); got < want {
					t.Errorf("after Enqueue %d: Len() = %d with %d enqueues returned", i, got, want)
					return
				}
			}
		}(q.MustHandle(proc))
	}
	wg.Wait()
	if got := q.Len(); got != p*perProc {
		t.Errorf("final Len() = %d, want %d", got, p*perProc)
	}
}

// lenCoversStalledInstaller is the schedule the concurrent run can only hope
// to hit: process a installs a root block and stalls between that CAS and
// its head advance, so the root's head still points below the newest
// block. Whoever returns next must have moved the head past a's block first
// (every Refresh ends by advancing the head), whether its own enqueue rides
// in a's block or in the next one.
func lenCoversStalledInstaller(t *testing.T) {
	for _, bInStalledBlock := range []bool{true, false} {
		q, err := New[int](2)
		if err != nil {
			t.Fatal(err)
		}
		a, b := q.MustHandle(0), q.MustHandle(1)
		a.stepAppendEnq(1)
		if bInStalledBlock {
			b.stepAppendEnq(2)
		}
		// a's Refresh at the root, cut after its CAS.
		root := q.root.Load()
		hd := a.readHead(root)
		prev, err := a.readBlock(root, hd-1)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := a.createBlock(root, prev, a.readHead(root.left), a.readHead(root.right))
		if err != nil || blk == nil || !a.addBlock(root, prev, blk) {
			t.Fatal("a could not install its root block")
		}
		if got := q.Len(); got != 0 {
			t.Fatalf("Len() = %d before any enqueue returned, want 0 (head has not advanced)", got)
		}
		if bInStalledBlock {
			b.stepPropagate() // the rest of b's Enqueue(2)
		} else {
			b.Enqueue(2)
		}
		if got := q.Len(); got != 2 {
			t.Errorf("b in a's block = %v: Len() = %d after b's Enqueue returned, want 2", bInStalledBlock, got)
		}
		a.casHead(root, hd) // a wakes up
		a.stepPropagate()
		if got := q.Len(); got != 2 {
			t.Errorf("Len() = %d after a's Enqueue returned, want 2", got)
		}
		for want := 1; want <= 2; want++ {
			if v, ok := a.Dequeue(); !ok || v != want {
				t.Errorf("Dequeue = (%d, %v), want (%d, true)", v, ok, want)
			}
		}
	}
}
