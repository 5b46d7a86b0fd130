package vector

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func TestNewValidation(t *testing.T) {
	if _, err := New[int](0); err == nil {
		t.Error("New(0) succeeded")
	}
	v, err := New[int](3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Procs() != 3 {
		t.Errorf("Procs = %d", v.Procs())
	}
	if _, err := v.Handle(3); err == nil {
		t.Error("Handle(3) succeeded")
	}
}

func TestAppendGetSequential(t *testing.T) {
	v, _ := New[string](2)
	h := v.MustHandle(0)
	var refs []Ref
	for i := 0; i < 100; i++ {
		refs = append(refs, h.Append(fmt.Sprintf("v%d", i)))
	}
	if v.Len() != 100 {
		t.Fatalf("Len = %d", v.Len())
	}
	for i := int64(0); i < 100; i++ {
		got, ok := h.Get(i)
		if !ok || got != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = (%q, %v)", i, got, ok)
		}
	}
	if _, ok := h.Get(100); ok {
		t.Error("Get past end succeeded")
	}
	if _, ok := h.Get(-1); ok {
		t.Error("Get(-1) succeeded")
	}
	for i, r := range refs {
		pos, err := h.Index(r)
		if err != nil || pos != int64(i) {
			t.Fatalf("Index(ref %d) = (%d, %v)", i, pos, err)
		}
	}
}

func TestIndexInvalidRef(t *testing.T) {
	v, _ := New[int](2)
	h := v.MustHandle(0)
	if _, err := h.Index(Ref{leafID: -1, idx: 1}); err == nil {
		t.Error("invalid leafID accepted")
	}
	if _, err := h.Index(Ref{leafID: 0, idx: 0}); err == nil {
		t.Error("idx 0 accepted")
	}
}

func TestInterleavedAppendsTwoHandles(t *testing.T) {
	v, _ := New[int](2)
	a, b := v.MustHandle(0), v.MustHandle(1)
	var refs []Ref
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			refs = append(refs, a.Append(i))
		} else {
			refs = append(refs, b.Append(i))
		}
	}
	// Sequential execution: positions must match append order.
	for i, r := range refs {
		pos, err := a.Index(r)
		if err != nil || pos != int64(i) {
			t.Fatalf("Index(%d) = (%d, %v)", i, pos, err)
		}
		got, ok := a.Get(int64(i))
		if !ok || got != i {
			t.Fatalf("Get(%d) = (%d, %v)", i, got, ok)
		}
	}
}

func TestConcurrentAppends(t *testing.T) {
	const procs = 8
	const perProc = 500
	v, _ := New[int64](procs)
	refs := make([][]Ref, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := v.MustHandle(p)
			for s := int64(0); s < perProc; s++ {
				refs[p] = append(refs[p], h.Append(int64(p)*1_000_000+s))
			}
		}(p)
	}
	wg.Wait()

	if v.Len() != procs*perProc {
		t.Fatalf("Len = %d, want %d", v.Len(), procs*perProc)
	}
	h := v.MustHandle(0)

	// The sequence contains every appended value exactly once.
	seen := make(map[int64]bool)
	for i := int64(0); i < procs*perProc; i++ {
		val, ok := h.Get(i)
		if !ok {
			t.Fatalf("Get(%d) missing", i)
		}
		if seen[val] {
			t.Fatalf("value %d at two positions", val)
		}
		seen[val] = true
	}

	// Per-process order is preserved and Index agrees with Get.
	for p := 0; p < procs; p++ {
		lastPos := int64(-1)
		for s, r := range refs[p] {
			pos, err := h.Index(r)
			if err != nil {
				t.Fatalf("Index(proc %d ref %d): %v", p, s, err)
			}
			if pos <= lastPos {
				t.Fatalf("proc %d: ref %d at position %d not after %d", p, s, pos, lastPos)
			}
			lastPos = pos
			val, ok := h.Get(pos)
			if !ok || val != int64(p)*1_000_000+int64(s) {
				t.Fatalf("Get(Index(ref)) = (%d, %v), want %d", val, ok, int64(p)*1_000_000+int64(s))
			}
		}
	}
}

func TestConcurrentReadersDuringAppends(t *testing.T) {
	const procs = 4
	v, _ := New[int64](procs)
	var appenders sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < procs-1; p++ {
		appenders.Add(1)
		go func(p int) {
			defer appenders.Done()
			h := v.MustHandle(p)
			for s := int64(0); s < 2000; s++ {
				h.Append(int64(p)<<32 + s)
			}
		}(p)
	}
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		h := v.MustHandle(procs - 1)
		rng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := v.Len()
			if n == 0 {
				continue
			}
			i := rng.Int63n(n)
			if _, ok := h.Get(i); !ok {
				t.Errorf("Get(%d) failed with Len=%d", i, n)
				return
			}
		}
	}()
	appenders.Wait()
	close(stop)
	reader.Wait()
}

func TestHeight(t *testing.T) {
	for _, c := range []struct{ procs, want int }{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}} {
		v, _ := New[int](c.procs)
		if got := v.height(); got != c.want {
			t.Errorf("height(%d procs) = %d, want %d", c.procs, got, c.want)
		}
	}
}

// TestTreeShape pins the ordering tree's shape: exactly max(p, 2) leaves in
// 1-indexed heap order (node i's children are 2i and 2i+1), every leaf at
// depth floor or ceil of log2 of the leaf count, so the height is
// ceil(log2 max(p, 2)), and handle i on node max(p, 2)+i.
func TestTreeShape(t *testing.T) {
	for p := 1; p <= 70; p++ {
		v, err := New[int](p)
		if err != nil {
			t.Fatal(err)
		}
		leaves := max(p, 2)
		lo, hi := bits.Len(uint(leaves))-1, bits.Len(uint(leaves-1))
		heap, height := map[*node[int]]int{}, 0
		var walk func(n *node[int], i, depth int)
		walk = func(n *node[int], i, depth int) {
			heap[n] = i
			if !n.isLeaf() {
				if n.left.parent != n || n.right.parent != n {
					t.Errorf("p=%d: node %d's children do not point back at it", p, i)
				}
				walk(n.left, 2*i, depth+1)
				walk(n.right, 2*i+1, depth+1)
				return
			}
			if depth < lo || depth > hi {
				t.Errorf("p=%d: leaf %d at depth %d, want %d..%d", p, i, depth, lo, hi)
			}
			height = max(height, depth)
		}
		walk(v.root, 1, 0)
		if len(heap) != 2*leaves-1 {
			t.Errorf("p=%d: %d nodes, want %d", p, len(heap), 2*leaves-1)
		}
		if height != hi || v.height() != hi {
			t.Errorf("p=%d: height %d (height() says %d), want %d", p, height, v.height(), hi)
		}
		for i := range p {
			if got := heap[v.handles[i].leaf]; got != leaves+i {
				t.Errorf("p=%d: handle %d on node %d, want %d", p, i, got, leaves+i)
			}
		}
	}
}

func TestVectorStepComplexityBound(t *testing.T) {
	// Guardrail from the Section 7 claim: Append and Index are O(log p),
	// Get is O(log p + log n). With this implementation's constants, no
	// operation should exceed 25*(lg p + 1) + 4*lg(n) + 30 steps.
	for _, procs := range []int{2, 8, 32} {
		v, err := New[int64](procs)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		worst := make([]int64, procs)
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				h := v.MustHandle(p)
				c := &metrics.Counter{}
				h.SetCounter(c)
				var refs []Ref
				for s := int64(0); s < 200; s++ {
					refs = append(refs, h.Append(int64(p)<<32|s))
				}
				for i, r := range refs {
					if _, err := h.Index(r); err != nil {
						t.Errorf("Index: %v", err)
						return
					}
					if _, ok := h.Get(int64(i)); !ok {
						t.Errorf("Get(%d) failed", i)
						return
					}
				}
				worst[p] = c.MaxOpSteps
			}(p)
		}
		wg.Wait()
		lg := int64(1)
		for 1<<lg < procs {
			lg++
		}
		n := int64(procs * 200)
		lgN := int64(1)
		for 1<<lgN < n {
			lgN++
		}
		bound := 25*(lg+1) + 4*lgN + 30
		for p, w := range worst {
			if w > bound {
				t.Errorf("procs=%d handle %d: worst op %d steps exceeds %d", procs, p, w, bound)
			}
		}
	}
}
