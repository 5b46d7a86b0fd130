package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New[int](0); err == nil {
		t.Error("New(0) succeeded, want error")
	}
	if _, err := New[int](-3); err == nil {
		t.Error("New(-3) succeeded, want error")
	}
	for _, p := range []int{1, 2, 3, 4, 5, 8, 9, 64} {
		q, err := New[int](p)
		if err != nil {
			t.Fatalf("New(%d): %v", p, err)
		}
		if got := q.Procs(); got != p {
			t.Errorf("Procs() = %d, want %d", got, p)
		}
	}
}

// TestTreeShape pins the ordering tree's shape: exactly max(p, 2) leaves in
// 1-indexed heap order, every leaf at depth floor or ceil of log2 of the
// leaf count, so the height is ceil(log2 max(p, 2)) (Prop 19 prices
// 5*ceil(log2 p) CASes per operation on it), and handle i on node
// max(p, 2)+i.
func TestTreeShape(t *testing.T) {
	for p := 1; p <= 70; p++ {
		q, err := New[int](p)
		if err != nil {
			t.Fatal(err)
		}
		leaves := max(p, 2)
		lo, hi := bits.Len(uint(leaves))-1, bits.Len(uint(leaves-1))
		nodes, height := 0, 0
		var walk func(v, depth int)
		walk = func(v, depth int) {
			nodes++
			if !q.isLeaf(v) {
				walk(2*v, depth+1)
				walk(2*v+1, depth+1)
				return
			}
			if depth < lo || depth > hi {
				t.Errorf("p=%d: leaf %d at depth %d, want %d..%d", p, v, depth, lo, hi)
			}
			height = max(height, depth)
		}
		walk(rootIdx, 0)
		if nodes != 2*leaves-1 || len(q.tree())-1 != nodes {
			t.Errorf("p=%d: %d nodes reachable, %d allocated, want %d", p, nodes, len(q.tree())-1, 2*leaves-1)
		}
		if height != hi {
			t.Errorf("p=%d: height %d, want %d", p, height, hi)
		}
		for i := range p {
			if got := q.handles[i].leaf; got != leaves+i {
				t.Errorf("p=%d: handle %d on node %d, want %d", p, i, got, leaves+i)
			}
		}
	}
}

func TestHandleRange(t *testing.T) {
	q, err := New[int](3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := q.Handle(i); err != nil {
			t.Errorf("Handle(%d): %v", i, err)
		}
	}
	for _, i := range []int{-1, 3, 100} {
		if _, err := q.Handle(i); err == nil {
			t.Errorf("Handle(%d) succeeded, want error", i)
		}
	}
}

func TestEmptyDequeue(t *testing.T) {
	q, _ := New[string](2)
	h := q.MustHandle(0)
	v, ok := h.Dequeue()
	if ok {
		t.Fatalf("Dequeue on empty queue returned (%q, true)", v)
	}
	if v != "" {
		t.Fatalf("null dequeue returned non-zero value %q", v)
	}
}

func TestFIFOSingleHandle(t *testing.T) {
	q, _ := New[int](4)
	h := q.MustHandle(0)
	for i := 0; i < 100; i++ {
		h.Enqueue(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := h.Dequeue()
		if !ok {
			t.Fatalf("dequeue %d: queue unexpectedly empty", i)
		}
		if v != i {
			t.Fatalf("dequeue %d returned %d", i, v)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("queue should be empty after draining")
	}
}

func TestInterleavedEmptiness(t *testing.T) {
	q, _ := New[int](2)
	h := q.MustHandle(0)
	for round := 0; round < 50; round++ {
		if _, ok := h.Dequeue(); ok {
			t.Fatalf("round %d: dequeue on empty queue succeeded", round)
		}
		h.Enqueue(round)
		v, ok := h.Dequeue()
		if !ok || v != round {
			t.Fatalf("round %d: got (%d, %v)", round, v, ok)
		}
	}
}

func TestTwoHandlesAlternating(t *testing.T) {
	// Sequential use of two different leaves: exercises propagation and
	// merge ordering without concurrency.
	q, _ := New[int](2)
	a, b := q.MustHandle(0), q.MustHandle(1)
	a.Enqueue(1)
	b.Enqueue(2)
	a.Enqueue(3)
	b.Enqueue(4)
	want := []int{1, 2, 3, 4}
	for i, w := range want {
		v, ok := b.Dequeue()
		if !ok || v != w {
			t.Fatalf("dequeue %d = (%d, %v), want %d", i, v, ok, w)
		}
	}
}

// modelQueue is the sequential reference implementation.
type modelQueue struct{ items []int }

func (m *modelQueue) enqueue(v int) { m.items = append(m.items, v) }

func (m *modelQueue) dequeue() (int, bool) {
	if len(m.items) == 0 {
		return 0, false
	}
	v := m.items[0]
	m.items = m.items[1:]
	return v, true
}

func TestRandomAgainstModelSequential(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 7, 16} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			q, _ := New[int](procs)
			model := &modelQueue{}
			rng := rand.New(rand.NewSource(int64(procs) * 17))
			next := 0
			for step := 0; step < 5000; step++ {
				h := q.MustHandle(rng.Intn(procs))
				if rng.Intn(2) == 0 {
					h.Enqueue(next)
					model.enqueue(next)
					next++
				} else {
					got, gotOK := h.Dequeue()
					want, wantOK := model.dequeue()
					if gotOK != wantOK || (gotOK && got != want) {
						t.Fatalf("step %d: Dequeue = (%d, %v), model = (%d, %v)",
							step, got, gotOK, want, wantOK)
					}
				}
			}
		})
	}
}

func TestLenTracksSize(t *testing.T) {
	q, _ := New[int](2)
	h := q.MustHandle(0)
	if got := q.Len(); got != 0 {
		t.Fatalf("empty queue Len() = %d", got)
	}
	for i := 0; i < 10; i++ {
		h.Enqueue(i)
	}
	if got := q.Len(); got != 10 {
		t.Fatalf("Len() = %d after 10 enqueues", got)
	}
	for i := 0; i < 4; i++ {
		h.Dequeue()
	}
	if got := q.Len(); got != 6 {
		t.Fatalf("Len() = %d after 4 dequeues", got)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	const procs = 8
	const perProducer = 2000
	q, _ := New[int](procs)

	// Handles 0-3 produce, 4-7 consume. Values encode producer and sequence
	// so FIFO-per-producer can be validated.
	var wg sync.WaitGroup
	results := make([][]int, procs)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := q.MustHandle(i)
			if i < 4 {
				for s := 0; s < perProducer; s++ {
					h.Enqueue(i*1_000_000 + s)
				}
				return
			}
			for {
				v, ok := h.Dequeue()
				if !ok {
					if len(results[i]) >= perProducer {
						return
					}
					continue
				}
				results[i] = append(results[i], v)
				if len(results[i]) == perProducer {
					return
				}
			}
		}(i)
	}
	wg.Wait()

	seen := make(map[int]bool)
	lastSeq := map[int]int{0: -1, 1: -1, 2: -1, 3: -1}
	perConsumerLast := make(map[int]map[int]int) // consumer -> producer -> last seq
	total := 0
	for c := 4; c < procs; c++ {
		perConsumerLast[c] = map[int]int{}
		for _, v := range results[c] {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
			total++
			prod, seq := v/1_000_000, v%1_000_000
			if last, ok := perConsumerLast[c][prod]; ok && seq < last {
				t.Fatalf("consumer %d saw producer %d out of order: %d after %d", c, prod, seq, last)
			}
			perConsumerLast[c][prod] = seq
			_ = lastSeq
		}
	}
	if total != 4*perProducer {
		t.Fatalf("dequeued %d values, want %d", total, 4*perProducer)
	}
}

func TestConcurrentAllRoles(t *testing.T) {
	// Every handle both enqueues and dequeues; at the end, drain and verify
	// the multiset of values.
	const procs = 6
	const perHandle = 1000
	q, _ := New[int](procs)
	var wg sync.WaitGroup
	dequeued := make([][]int, procs)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := q.MustHandle(i)
			rng := rand.New(rand.NewSource(int64(i)))
			enq := 0
			for enq < perHandle {
				if rng.Intn(2) == 0 {
					h.Enqueue(i*1_000_000 + enq)
					enq++
				} else if v, ok := h.Dequeue(); ok {
					dequeued[i] = append(dequeued[i], v)
				}
			}
		}(i)
	}
	wg.Wait()

	// Drain the remainder.
	h := q.MustHandle(0)
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		dequeued[0] = append(dequeued[0], v)
	}

	seen := make(map[int]bool)
	total := 0
	for _, ds := range dequeued {
		for _, v := range ds {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != procs*perHandle {
		t.Fatalf("dequeued %d values, want %d", total, procs*perHandle)
	}
	for i := 0; i < procs; i++ {
		for s := 0; s < perHandle; s++ {
			if !seen[i*1_000_000+s] {
				t.Fatalf("value from handle %d seq %d never dequeued", i, s)
			}
		}
	}
}

func TestAblationVariantsStillCorrect(t *testing.T) {
	// Both ablation variants must preserve FIFO semantics; only their cost
	// profile changes.
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain-root-search", []Option{WithPlainRootSearch()}},
		{"spinning-refresh", []Option{WithSpinningRefresh()}},
		{"both", []Option{WithPlainRootSearch(), WithSpinningRefresh()}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			q, err := New[int](3, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var model []int
			rng := rand.New(rand.NewSource(11))
			next := 0
			for step := 0; step < 3000; step++ {
				h := q.MustHandle(rng.Intn(3))
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
					t.Fatalf("step %d: (%d,%v) vs model (%d,%v)", step, got, gotOK, want, wantOK)
				}
			}
		})
	}
}

func TestAblationVariantsConcurrent(t *testing.T) {
	for _, opts := range [][]Option{
		{WithPlainRootSearch()},
		{WithSpinningRefresh()},
	} {
		q, err := New[int](4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		seen := make([]map[int]bool, 4)
		for p := 0; p < 4; p++ {
			seen[p] = map[int]bool{}
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				h := q.MustHandle(p)
				for s := 0; s < 800; s++ {
					h.Enqueue(p*10_000 + s)
					if v, ok := h.Dequeue(); ok {
						seen[p][v] = true
					}
				}
			}(p)
		}
		wg.Wait()
		total := 0
		union := map[int]bool{}
		for p := range seen {
			for v := range seen[p] {
				if union[v] {
					t.Fatalf("value %d dequeued twice", v)
				}
				union[v] = true
				total++
			}
		}
		h := q.MustHandle(0)
		for {
			if _, ok := h.Dequeue(); !ok {
				break
			}
			total++
		}
		if total != 4*800 {
			t.Fatalf("dequeued %d values, want %d", total, 4*800)
		}
	}
}

// TestLenCoversCompletedOps pins what the shard fabric's root-read null
// relies on: Len is never older than the root block of an operation that
// has returned.
func TestLenCoversCompletedOps(t *testing.T) {
	t.Run("concurrent", lenCoversConcurrentEnqueues)
	t.Run("stalled-installer", lenCoversStalledInstaller)
}

// lenCoversConcurrentEnqueues runs p enqueuers and no dequeuers: completed
// is bumped after each Enqueue returns and read before each Len, so
// Len() >= completed must hold at every check.
func lenCoversConcurrentEnqueues(t *testing.T) {
	const p, perProc = 6, 3000
	q, err := New[int](p)
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
// its advance, so root.head still points below the newest block. Whoever
// returns next must have moved head past a's block first (every refresh
// ends in advance), whether its own enqueue rides in a's block or in the
// next one.
func lenCoversStalledInstaller(t *testing.T) {
	for _, bInStalledBlock := range []bool{true, false} {
		q, err := New[int](2)
		if err != nil {
			t.Fatal(err)
		}
		a, b := q.MustHandle(0), q.MustHandle(1)
		a.StepEnqueue(1)
		if bInStalledBlock {
			b.StepEnqueue(2)
		}
		// a's Refresh at the root, cut after line 32's CAS.
		hd := a.readHead(rootIdx)
		blk := a.createBlock(rootIdx, hd, a.readHead(2), a.readHead(3))
		if blk == nil || !a.casBlock(rootIdx, hd, &blk.block) {
			t.Fatal("a could not install its root block")
		}
		if got := q.Len(); got != 0 {
			t.Fatalf("Len() = %d before any enqueue returned, want 0 (head has not advanced)", got)
		}
		if bInStalledBlock {
			b.StepPropagate() // the rest of b's Enqueue(2)
		} else {
			b.Enqueue(2)
		}
		if got := q.Len(); got != 2 {
			t.Errorf("b in a's block = %v: Len() = %d after b's Enqueue returned, want 2", bInStalledBlock, got)
		}
		a.advance(rootIdx, hd, &blk.block) // a wakes up
		a.StepPropagate()
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
