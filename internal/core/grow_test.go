package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// growScript runs steps random operations, singles and batches, over every
// handle of q against the model, checking each response and Len.
func growScript(t *testing.T, q *Queue[int], model *modelQueue, rng *rand.Rand, next *int, steps, enqPct int) {
	t.Helper()
	for step := 0; step < steps; step++ {
		h := q.MustHandle(rng.Intn(q.Procs()))
		switch r := rng.Intn(100); {
		case r < enqPct && r%4 == 0:
			vs := make([]int, 1+rng.Intn(5))
			for i := range vs {
				vs[i] = *next
				model.enqueue(*next)
				*next++
			}
			h.EnqueueBatch(vs)
		case r < enqPct:
			h.Enqueue(*next)
			model.enqueue(*next)
			*next++
		case r%3 == 0:
			n := 1 + rng.Intn(6)
			got, k := h.DequeueBatch(n)
			for i := 0; i < n; i++ {
				want, ok := model.dequeue()
				if ok != (i < k) || ok && got[i] != want {
					t.Fatalf("step %d: DequeueBatch(%d) = %v, model disagrees at %d", step, n, got, i)
				}
			}
		default:
			got, ok := h.Dequeue()
			want, wantOK := model.dequeue()
			if ok != wantOK || ok && got != want {
				t.Fatalf("step %d: Dequeue = (%d, %v), model = (%d, %v)", step, got, ok, want, wantOK)
			}
		}
		if n := q.Len(); n != len(model.items) {
			t.Fatalf("step %d: Len = %d, model holds %d", step, n, len(model.items))
		}
	}
}

// TestGrowFIFO grows a 4-leaf tree to 8 and then 16 leaves under a live
// backlog, after null dequeues made the root's sizes differ from
// sumEnq - sumDeq, and checks every response and Len against a sequential
// model before and after. The drained case grows at an empty queue, where
// the new root copies only the old root's newest block.
func TestGrowFIFO(t *testing.T) {
	for _, drained := range []bool{false, true} {
		t.Run(fmt.Sprintf("drained=%v", drained), func(t *testing.T) {
			q, err := New[int](4)
			if err != nil {
				t.Fatal(err)
			}
			model := &modelQueue{}
			rng := rand.New(rand.NewSource(44))
			next := 0
			h0 := q.MustHandle(0)
			growScript(t, q, model, rng, &next, 50, 0) // null dequeues only
			for _, leaves := range []int{8, 16} {
				growScript(t, q, model, rng, &next, 800, 70)
				if drained {
					growScript(t, q, model, rng, &next, 400, 0)
				}
				q.Grow()
				if q.Procs() != leaves || q.MustHandle(0) != h0 {
					t.Fatalf("after Grow: %d procs (want %d), handle 0 moved: %v", q.Procs(), leaves, q.MustHandle(0) != h0)
				}
				if n := q.Len(); n != len(model.items) {
					t.Fatalf("Len = %d right after Grow to %d leaves, model holds %d", n, leaves, len(model.items))
				}
				nodes := q.tree()
				for i, h := range q.handles {
					if h.leaf != leaves+i || &h.nodes[0] != &nodes[0] {
						t.Fatalf("handle %d on leaf %d of a stale tree, want leaf %d", i, h.leaf, leaves+i)
					}
				}
				if len(nodes) != 2*leaves {
					t.Fatalf("%d nodes, want %d", len(nodes), 2*leaves)
				}
			}
			growScript(t, q, model, rng, &next, 3000, 50)
			growScript(t, q, model, rng, &next, 1500, 0)
			if len(model.items) != 0 || q.Len() != 0 {
				t.Fatalf("not drained: model %d, Len %d", len(model.items), q.Len())
			}
		})
	}
}

// TestGrowConcurrent grows a tree that holds a backlog and then runs
// producers and consumers on the old handles and the new ones at once:
// every value comes out exactly once and each producer's values in order.
func TestGrowConcurrent(t *testing.T) {
	const backlog, per = 300, 1500
	q, err := New[int](4)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		for s := 0; s < backlog; s++ {
			q.MustHandle(p).Enqueue(p*1_000_000 + s)
		}
		q.MustHandle(p).Dequeue() // takes one of producer 0's values
	}
	q.Grow()
	q.Grow()
	procs := q.Procs()
	var wg sync.WaitGroup
	outs := make([][]int, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.MustHandle(p)
			if p%2 == 0 {
				for s := backlog; s < backlog+per; s++ {
					h.Enqueue(p*1_000_000 + s)
				}
				return
			}
			for i := 0; i < 2*per; i++ {
				if v, ok := h.Dequeue(); ok {
					outs[p] = append(outs[p], v)
				}
			}
		}(p)
	}
	wg.Wait()
	drain, _ := q.MustHandle(0).DequeueBatch(1 << 20)
	seen := map[int]bool{}
	for _, out := range append(outs, drain) {
		last := map[int]int{}
		for _, v := range out {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
			p, s := v/1_000_000, v%1_000_000
			if prev, ok := last[p]; ok && s <= prev {
				t.Fatalf("producer %d: %d dequeued after %d", p, s, prev)
			}
			last[p] = s
		}
	}
	if want := 4*backlog - 4 + procs/2*per; len(seen) != want || q.Len() != 0 {
		t.Fatalf("%d values dequeued, want %d; Len %d", len(seen), want, q.Len())
	}
}
