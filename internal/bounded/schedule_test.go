package bounded

// Deterministic schedule exploration for the bounded-space queue, mirroring
// internal/core's exploration but additionally exercising garbage
// collection: tiny GC intervals make the explored schedules constantly
// discard blocks, stressing the store searches across drops, the miss
// (errDiscarded) paths and the helping machinery under adversarial
// interleavings of appends and refreshes.
//
// The hooks (stepAppendEnq, stepAppendDeq, stepAppend, stepPropagate) are
// test-only methods defined here; they follow exactly the same protocol as
// the full operations.

import (
	"math/rand"
	"slices"
	"testing"
)

// stepAppendEnq appends an enqueue block to the handle's leaf without
// propagating. Returns the block.
func (h *Handle[T]) stepAppendEnq(e T) *leafBlock[T] {
	prev := h.last
	b := &leafBlock[T]{
		block:   block{index: prev.index + 1, sumEnq: prev.sumEnq + 1, sumDeq: prev.sumDeq},
		element: e,
	}
	h.stepAppend(&b.block)
	return b
}

// stepAppendDeq appends a dequeue block without propagating or resolving.
func (h *Handle[T]) stepAppendDeq() *leafBlock[T] {
	prev := h.last
	b := &leafBlock[T]{
		block:    block{index: prev.index + 1, sumEnq: prev.sumEnq, sumDeq: prev.sumDeq + 1},
		isDeq:    true,
		deqCount: 1,
	}
	h.stepAppend(&b.block)
	return b
}

// stepAppend is append without its propagate.
func (h *Handle[T]) stepAppend(b *block) {
	h.addBlock(h.leaf, h.last, b)
	h.last = b
	h.casHead(h.leaf, b.index)
}

// stepPropagate is the rest of an operation whose block stepAppend
// installed.
func (h *Handle[T]) stepPropagate() { h.propagate(h.leaf.parent) }

// stepFinish resolves a previously appended dequeue (must be propagated).
func (h *Handle[T]) stepFinish(b *leafBlock[T]) (T, bool) {
	res, err := h.completeDeqN(h.leaf, b.index, 1)
	if err != nil {
		res = h.awaitResponse(b)
	}
	return res.val, res.ok
}

type boundedSchedOp struct {
	proc  int
	isEnq bool
	value int
	block *leafBlock[int]
}

func TestBoundedScheduleExploration(t *testing.T) {
	const trials = 600
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		procs := 2 + rng.Intn(3)
		opsPerProc := 2 + rng.Intn(3)
		g := int64(2 + rng.Intn(6))
		exploreBoundedSchedule(t, rng, procs, opsPerProc, g, trial)
		if t.Failed() {
			return
		}
	}
}

func exploreBoundedSchedule(t *testing.T, rng *rand.Rand, procs, opsPerProc int, g int64, trial int) {
	t.Helper()
	q, err := New[int](procs, WithGCInterval(g))
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle[int], procs)
	for i := range handles {
		handles[i] = q.MustHandle(i)
	}

	// Script operations.
	var script [][]*boundedSchedOp
	var all []*boundedSchedOp
	nextVal := 1
	for p := 0; p < procs; p++ {
		var ops []*boundedSchedOp
		for s := 0; s < opsPerProc; s++ {
			op := &boundedSchedOp{proc: p, isEnq: rng.Intn(2) == 0, value: nextVal}
			nextVal++
			ops = append(ops, op)
			all = append(all, op)
		}
		script = append(script, ops)
	}

	// Internal nodes for refresh actions.
	var internals []*node
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			return
		}
		internals = append(internals, n)
		walk(n.left)
		walk(n.right)
	}
	walk(q.root.Load())

	appended := make([]int, procs)
	pending := procs * opsPerProc
	stall := 0
	for pending > 0 {
		if stall > 60 {
			p := rng.Intn(procs)
			handles[p].propagate(q.leaves[p].parent)
			stall = 0
			continue
		}
		if rng.Intn(3) == 0 {
			// A process refreshes only nodes on its own path, whose blocks
			// its arena carves (pool.go); every handle under a node takes
			// the same steps there, so the refresh runs on the handle of
			// the node's leftmost leaf. The handle draw stays so that each
			// trial's seed keeps its schedule.
			rng.Intn(procs)
			v := internals[rng.Intn(len(internals))]
			leftmost := v
			for !leftmost.isLeaf() {
				leftmost = leftmost.left
			}
			handles[slices.Index(q.leaves, leftmost)].refresh(v)
			continue
		}
		p := rng.Intn(procs)
		if appended[p] == len(script[p]) {
			stall++
			continue
		}
		if appended[p] > 0 {
			prev := script[p][appended[p]-1]
			if !handles[p].propagated(q.leaves[p], prev.block.index) {
				stall++
				continue
			}
			// Resolve the previous dequeue before starting the next op, as
			// a real process would (its response affects last[] and GC).
			if !prev.isEnq && prev.block.response.Load() == nil {
				if res, err := handles[p].completeDeqN(q.leaves[p], prev.block.index, 1); err == nil {
					prev.block.response.CompareAndSwap(nil, &res)
				}
			}
		}
		op := script[p][appended[p]]
		if op.isEnq {
			op.block = handles[p].stepAppendEnq(op.value)
		} else {
			op.block = handles[p].stepAppendDeq()
		}
		appended[p]++
		pending--
		stall = 0
	}
	for p := 0; p < procs; p++ {
		handles[p].propagate(q.leaves[p].parent)
	}

	// Resolve every dequeue and validate against a sequential replay of the
	// linearization reconstructed from a full drain.
	//
	// Unlike the unbounded queue we cannot expand the root (blocks may be
	// GC'd), so validate semantically: resolve all scripted dequeues, then
	// drain; the multiset of (dequeued + drained) values must equal the
	// enqueued ones, with per-process dequeue responses FIFO-consistent.
	got := map[int]int{} // value -> count
	enqueued := map[int]bool{}
	for _, op := range all {
		if op.isEnq {
			enqueued[op.value] = true
			continue
		}
		v, ok := handles[op.proc].stepFinish(op.block)
		if ok {
			got[v]++
		}
	}
	h := handles[0]
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		got[v]++
	}
	for v, c := range got {
		if c != 1 {
			t.Fatalf("trial %d (G=%d): value %d seen %d times", trial, g, v, c)
		}
		if !enqueued[v] {
			t.Fatalf("trial %d (G=%d): value %d dequeued but never enqueued", trial, g, v)
		}
	}
	if len(got) != len(enqueued) {
		t.Fatalf("trial %d (G=%d): %d values recovered, %d enqueued", trial, g, len(got), len(enqueued))
	}
}

// TestHelpCompletesPendingDequeue constructs the helping scenario
// deterministically: process A's dequeue is appended and propagated but not
// resolved; process B's operations eventually trigger a GC phase whose Help
// pass must compute and publish A's response (Appendix B).
func TestHelpCompletesPendingDequeue(t *testing.T) {
	q, err := New[int](2, WithGCInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	a, b := q.MustHandle(0), q.MustHandle(1)
	b.Enqueue(7)

	blk := a.stepAppendDeq()
	a.propagate(q.leaves[0].parent)
	if !a.propagated(q.leaves[0], blk.index) {
		t.Fatal("dequeue block did not propagate")
	}
	if blk.response.Load() != nil {
		t.Fatal("response set before any helping")
	}

	// B's traffic triggers GC (every 4th block per node) whose Help must
	// complete A's pending dequeue.
	for i := 0; blk.response.Load() == nil && i < 200; i++ {
		b.Enqueue(100 + i)
		b.Dequeue()
	}
	res := blk.response.Load()
	if res == nil {
		t.Fatal("help never published the pending dequeue's response")
	}
	if !res.ok || res.val != 7 {
		t.Fatalf("helped response = (%d, %v), want (7, true)", res.val, res.ok)
	}
	// A's own completion path agrees.
	v, ok := a.stepFinish(blk)
	if !ok || v != 7 {
		t.Fatalf("owner completion = (%d, %v), want (7, true)", v, ok)
	}
}
