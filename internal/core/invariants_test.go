package core

// White-box tests that check the paper's stated invariants directly on tree
// states produced by live concurrent runs (the proofs of Section 4 rely on
// exactly these properties):
//
//   Invariant 3:  blocks[i] non-nil iff i < head (head may lag one install);
//                 super set for all installed blocks below head.
//   Lemma 4:      endleft/endright are non-decreasing along a blocks array.
//   Invariant 7:  sumenq/sumdeq equal the sizes of the expanded sequences
//                 E(B), D(B) accumulated over the blocks array.
//   Lemma 12:     a block's super field is within 1 of its true superblock
//                 index.
//   Lemma 16:     root size fields follow the max(0, ...) recurrence.
//   Corollary 6:  every leaf operation is contained in exactly one block of
//                 each ancestor.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// runConcurrent produces a quiesced queue after a random concurrent
// workload.
func runConcurrent(t *testing.T, procs, opsPerProc int, seed int64) *Queue[int] {
	t.Helper()
	q, err := New[int](procs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.MustHandle(p)
			rng := rand.New(rand.NewSource(seed + int64(p)))
			for s := 0; s < opsPerProc; s++ {
				if rng.Intn(2) == 0 {
					h.Enqueue(p*1_000_000 + s)
				} else {
					h.Dequeue()
				}
			}
		}(p)
	}
	wg.Wait()
	return q
}

// forEachNode visits every tree node by heap index.
func forEachNode[T any](q *Queue[T], fn func(v int, n *node)) {
	for v := rootIdx; v < len(q.tree()); v++ {
		fn(v, &q.tree()[v])
	}
}

func TestInvariant3HeadAndSuper(t *testing.T) {
	q := runConcurrent(t, 7, 800, 3)
	forEachNode(q, func(v int, n *node) {
		head := n.head.Load()
		for i := int64(0); i < head; i++ {
			if n.blocks.Get(i) == nil {
				t.Fatalf("blocks[%d] nil below head %d", i, head)
			}
		}
		// After quiescence head may lag at most one installed block.
		if n.blocks.Get(head+1) != nil && n.blocks.Get(head) == nil {
			t.Fatalf("hole at head %d", head)
		}
		if v != rootIdx {
			for i := int64(1); i < head; i++ {
				if n.blocks.Get(i).sizeOrSuper.Load() == 0 {
					t.Fatalf("blocks[%d].super unset below head %d", i, head)
				}
			}
		}
	})
}

func TestLemma4EndsNonDecreasing(t *testing.T) {
	q := runConcurrent(t, 8, 800, 4)
	forEachNode(q, func(v int, n *node) {
		if q.isLeaf(v) {
			return
		}
		for i := int64(1); ; i++ {
			if n.blocks.Get(i) == nil {
				break
			}
			cur, prev := innerOf(n.blocks.Get(i)), innerOf(n.blocks.Get(i-1))
			if cur.endLeft < prev.endLeft || cur.endRight < prev.endRight {
				t.Fatalf("block %d ends (%d,%d) below previous (%d,%d)",
					i, cur.endLeft, cur.endRight, prev.endLeft, prev.endRight)
			}
		}
	})
}

// expandCounts recursively counts the enqueues and dequeues represented by
// block b of node v — the |E(B)| and |D(B)| of equation (3.1).
func expandCounts[T any](q *Queue[T], v int, b int64) (enqs, deqs int64) {
	n := &q.tree()[v]
	blk := n.blocks.Get(b)
	if b == 0 {
		return 0, 0
	}
	if q.isLeaf(v) {
		prev := n.blocks.Get(b - 1)
		return blk.sumEnq - prev.sumEnq, blk.sumDeq - prev.sumDeq
	}
	ib, prev := innerOf(blk), innerOf(n.blocks.Get(b-1))
	for i := prev.endLeft + 1; i <= ib.endLeft; i++ {
		e, d := expandCounts(q, 2*v, i)
		enqs += e
		deqs += d
	}
	for i := prev.endRight + 1; i <= ib.endRight; i++ {
		e, d := expandCounts(q, 2*v+1, i)
		enqs += e
		deqs += d
	}
	return enqs, deqs
}

func TestInvariant7PrefixSums(t *testing.T) {
	q := runConcurrent(t, 6, 600, 5)
	forEachNode(q, func(v int, n *node) {
		var sumE, sumD int64
		for i := int64(1); ; i++ {
			blk := n.blocks.Get(i)
			if blk == nil {
				break
			}
			e, d := expandCounts(q, v, i)
			if e+d == 0 {
				t.Fatalf("block %d represents no operations (violates Corollary 8)", i)
			}
			sumE += e
			sumD += d
			if blk.sumEnq != sumE || blk.sumDeq != sumD {
				t.Fatalf("block %d sums (%d,%d), expanded (%d,%d)",
					i, blk.sumEnq, blk.sumDeq, sumE, sumD)
			}
		}
	})
}

func TestLemma12SuperAccuracy(t *testing.T) {
	q := runConcurrent(t, 8, 600, 6)
	forEachNode(q, func(v int, n *node) {
		if v == rootIdx {
			return
		}
		dir := childDir(v)
		parent := &q.tree()[v>>1]
		for b := int64(1); ; b++ {
			blk := n.blocks.Get(b)
			if blk == nil {
				break
			}
			// True superblock: first parent block whose end(dir) >= b.
			var trueSup int64 = -1
			for s := int64(1); ; s++ {
				pb := parent.blocks.Get(s)
				if pb == nil {
					break
				}
				if innerOf(pb).end(dir) >= b {
					trueSup = s
					break
				}
			}
			if trueSup < 0 {
				continue // not yet propagated (possible only for the newest block)
			}
			sup := blk.sizeOrSuper.Load()
			if sup == 0 {
				continue // not yet advanced past; Invariant 3 checks cover the rest
			}
			if sup != trueSup && sup != trueSup-1 {
				t.Fatalf("node path? block %d: super=%d, true superblock %d", b, sup, trueSup)
			}
		}
	})
}

func TestLemma16RootSizes(t *testing.T) {
	q := runConcurrent(t, 5, 700, 7)
	root := &q.tree()[rootIdx]
	var size int64
	for i := int64(1); ; i++ {
		blk := root.blocks.Get(i)
		if blk == nil {
			break
		}
		prev := root.blocks.Get(i - 1)
		size = prev.size() + blk.numEnqueues(prev) - blk.numDequeues(prev)
		if size < 0 {
			size = 0
		}
		if blk.size() != size {
			t.Fatalf("root block %d size %d, recurrence gives %d", i, blk.size(), size)
		}
	}
}

func TestCorollary6EachOpInOneRootBlock(t *testing.T) {
	q := runConcurrent(t, 6, 500, 8)
	// Count how many times each (leaf, index) appears as a subblock of a
	// root block.
	type key struct {
		leaf int
		idx  int64
	}
	counts := map[key]int{}
	var collect func(v int, b int64)
	collect = func(v int, b int64) {
		if b == 0 {
			return
		}
		n := &q.tree()[v]
		if q.isLeaf(v) {
			counts[key{v - q.numLeaves, b}]++
			return
		}
		blk, prev := innerOf(n.blocks.Get(b)), innerOf(n.blocks.Get(b-1))
		for i := prev.endLeft + 1; i <= blk.endLeft; i++ {
			collect(2*v, i)
		}
		for i := prev.endRight + 1; i <= blk.endRight; i++ {
			collect(2*v+1, i)
		}
	}
	root := &q.tree()[rootIdx]
	for b := int64(1); ; b++ {
		if root.blocks.Get(b) == nil {
			break
		}
		collect(rootIdx, b)
	}
	for k, c := range counts {
		if c != 1 {
			t.Fatalf("leaf %d block %d appears in %d root blocks", k.leaf, k.idx, c)
		}
	}
	// Every completed leaf operation must be present (Lemma 11).
	for li := 0; li < q.numLeaves; li++ {
		head := q.tree()[q.numLeaves+li].head.Load()
		for i := int64(1); i < head; i++ {
			if counts[key{li, i}] != 1 {
				t.Fatalf("leaf %d block %d not contained in exactly one root block", li, i)
			}
		}
	}
}

func TestStepComplexityBound(t *testing.T) {
	// Concrete numeric guardrail derived from Theorem 22: with the
	// measured constants of this implementation, steps per operation stay
	// under 25*(ceil(lg p)+1)^2 + 2*lg(q)+40 for every operation in a pairs
	// workload. A regression that made costs linear in p would blow far
	// past it.
	for _, procs := range []int{2, 4, 8, 16, 32} {
		q, err := New[int](procs)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		worst := make([]int64, procs)
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				h := q.MustHandle(p)
				c := &metrics.Counter{}
				h.SetCounter(c)
				for s := 0; s < 400; s++ {
					h.Enqueue(s)
					h.Dequeue()
				}
				worst[p] = c.MaxOpSteps
			}(p)
		}
		wg.Wait()
		logP := int64(1)
		for 1<<logP < procs {
			logP++
		}
		bound := 25*(logP+1)*(logP+1) + 40
		for p, w := range worst {
			if w > bound {
				t.Errorf("procs=%d handle %d: worst op %d steps exceeds bound %d",
					procs, p, w, bound)
			}
		}
	}
}

func TestStepperInvalidPaths(t *testing.T) {
	q, _ := New[int](4)
	h := q.MustHandle(0)
	if _, err := q.StepRefresh(h, "X"); err == nil {
		t.Error("invalid path step accepted")
	}
	if _, err := q.StepRefresh(h, "LL"); err == nil {
		t.Error("leaf refresh accepted")
	}
	if _, err := q.StepRefresh(h, "LLL"); err == nil {
		t.Error("past-leaf path accepted")
	}
	if ok, err := q.StepRefresh(h, "L"); err != nil || !ok {
		t.Errorf("valid refresh = (%v, %v)", ok, err)
	}
}

func TestStepOperationsComposeWithFullOps(t *testing.T) {
	// Mixing step-granular and full operations must preserve semantics.
	q, _ := New[int](2)
	h0, h1 := q.MustHandle(0), q.MustHandle(1)
	h0.StepEnqueue(1)
	h1.Enqueue(2) // full op propagates h0's pending block too
	v, ok := h0.Dequeue()
	if !ok || v != 1 {
		t.Fatalf("first dequeue = (%d, %v), want 1", v, ok)
	}
	v, ok = h1.Dequeue()
	if !ok || v != 2 {
		t.Fatalf("second dequeue = (%d, %v), want 2", v, ok)
	}
	idx := h0.StepDequeue()
	h0.StepPropagate()
	if _, ok := h0.StepFinishDequeue(idx); ok {
		t.Fatal("dequeue on empty queue returned a value")
	}
}
