package bounded

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// growStep is one operation of a grow script: handle i enqueues a batch of
// enq values (when enq > 0) or dequeues a batch of deq.
type growStep struct{ i, enq, deq int }

// growScript is a seeded operation script over a tree that starts with 4
// leaves and doubles to 8 and 16: null dequeues first, then stretches that
// fill and ones that drain; a growth goes between two stretches.
func growScript(seed int64) [][]growStep {
	rng := rand.New(rand.NewSource(seed))
	stretch := func(procs, steps, enqPct int) []growStep {
		out := make([]growStep, steps)
		for s := range out {
			out[s].i = rng.Intn(procs)
			if rng.Intn(100) < enqPct {
				out[s].enq = 1 + rng.Intn(4)/3*rng.Intn(6)
			} else {
				out[s].deq = 1 + rng.Intn(3)/2*rng.Intn(6)
			}
		}
		return out
	}
	return [][]growStep{
		append(stretch(4, 40, 0), stretch(4, 600, 70)...),
		stretch(8, 600, 65),
		append(stretch(16, 2500, 50), stretch(16, 1500, 0)...),
	}
}

// runGrowScript runs the stretches on q, calling Grow between them when
// grow is set, and checks every response and Len against a sequential
// model of the values it enqueued.
func runGrowScript(t *testing.T, q *Queue[int], stretches [][]growStep, grow bool) {
	t.Helper()
	var model []int
	next := 0
	for k, stretch := range stretches {
		if grow && k > 0 {
			q.Grow()
			if n := q.Len(); n != len(model) {
				t.Fatalf("Len = %d right after Grow to %d leaves, model holds %d", n, q.Procs(), len(model))
			}
		}
		for s, st := range stretch {
			h := q.MustHandle(st.i)
			if st.enq > 0 {
				vs := make([]int, st.enq)
				for j := range vs {
					vs[j] = next
					next++
				}
				model = append(model, vs...)
				if len(vs) == 1 {
					h.Enqueue(vs[0])
				} else {
					h.EnqueueBatch(vs)
				}
			} else {
				got, n := h.DequeueBatch(st.deq)
				want := model[:min(st.deq, len(model))]
				if fmt.Sprint(got[:n]) != fmt.Sprint(want) {
					t.Fatalf("stretch %d step %d: DequeueBatch(%d) = %v, want %v", k, s, st.deq, got[:n], want)
				}
				model = model[len(want):]
			}
			if n := q.Len(); n != len(model) {
				t.Fatalf("stretch %d step %d: Len = %d, model holds %d", k, s, n, len(model))
			}
		}
	}
}

// TestGrowFIFO grows a 4-leaf tree to 8 and then 16 leaves under a live
// backlog, after null dequeues made the root's sizes differ from
// sumEnq - sumDeq, at a G small enough that GC phases run throughout,
// and checks every response and Len against a sequential model. After the
// drain and 2G more operations, the grown tree holds no more live blocks
// than a bare 16-leaf tree that ran the same script.
func TestGrowFIFO(t *testing.T) {
	const g = 24
	stretches := growScript(7)
	tail := []growStep{}
	for r := 0; r < g; r++ {
		tail = append(tail, growStep{i: r % 16, enq: 1}, growStep{i: (r + 5) % 16, deq: 1})
	}
	stretches[2] = append(stretches[2], tail...)

	grown, err := New[int](4, WithGCInterval(g))
	if err != nil {
		t.Fatal(err)
	}
	h0 := grown.MustHandle(0)
	runGrowScript(t, grown, stretches, true)
	if grown.Procs() != 16 || grown.MustHandle(0) != h0 {
		t.Fatalf("after two growths: %d procs, handle 0 moved: %v", grown.Procs(), grown.MustHandle(0) != h0)
	}
	bare, err := New[int](16, WithGCInterval(g))
	if err != nil {
		t.Fatal(err)
	}
	runGrowScript(t, bare, stretches, false)
	gb, bb := grown.TotalBlocks(), bare.TotalBlocks()
	t.Logf("live blocks after the drain and 2G operations: grown %d, bare %d", gb, bb)
	if gb > bb {
		t.Errorf("grown tree holds %d live blocks after the drain and 2G operations, a bare 16-leaf tree %d", gb, bb)
	}
}

// TestGrowConcurrent grows a tree that holds a backlog, at a small G, and
// then runs producers and consumers on the old handles and the new ones at
// once: every value comes out exactly once and each producer's values in
// order.
func TestGrowConcurrent(t *testing.T) {
	const backlog, per = 300, 1500
	q, err := New[int](4, WithGCInterval(16))
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
