package core

// Deterministic schedule exploration. Goroutine scheduling only samples a
// narrow band of interleavings; these tests instead drive the queue's
// phases (leaf appends and per-node Refreshes) under explicit random
// schedules, reaching block-boundary configurations that are hard to hit
// live. For every explored schedule the induced root linearization L must
//
//   - contain every appended operation exactly once, in per-process order,
//   - yield, when replayed sequentially, exactly the responses the queue's
//     own IndexDequeue/FindResponse machinery computes for each dequeue.
//
// This is the strongest correctness check in the package: it verifies the
// full implicit-representation pipeline (prefix sums, end indices, super
// tracing, size fields, binary searches) against first-principles replay on
// thousands of adversarial schedules.

import (
	"fmt"
	"math/rand"
	"testing"
)

// schedOp is one scripted operation.
type schedOp struct {
	proc  int
	isEnq bool
	value int
	idx   int64 // leaf block index once appended
}

// expandLeafOps expands block b of node v into leaf-operation references in
// linearization order (enqueues and dequeues separately).
func expandLeafOps[T any](q *Queue[T], v int, b int64) (enqs, deqs [][2]int64) {
	if b == 0 {
		return nil, nil
	}
	n := &q.tree()[v]
	blk := n.blocks.Get(b)
	if q.isLeaf(v) {
		prev := n.blocks.Get(b - 1)
		ref := [2]int64{int64(v - q.numLeaves), b}
		if blk.sumEnq > prev.sumEnq {
			return [][2]int64{ref}, nil
		}
		return nil, [][2]int64{ref}
	}
	ib, prev := innerOf(blk), innerOf(n.blocks.Get(b-1))
	for i := prev.endLeft + 1; i <= ib.endLeft; i++ {
		e, d := expandLeafOps(q, 2*v, i)
		enqs = append(enqs, e...)
		deqs = append(deqs, d...)
	}
	for i := prev.endRight + 1; i <= ib.endRight; i++ {
		e, d := expandLeafOps(q, 2*v+1, i)
		enqs = append(enqs, e...)
		deqs = append(deqs, d...)
	}
	return enqs, deqs
}

func TestScheduleExploration(t *testing.T) {
	const trials = 1500
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		procs := 2 + rng.Intn(3) // 2..4
		opsPerProc := 2 + rng.Intn(3)
		exploreSchedule(t, rng, procs, opsPerProc, trial)
		if t.Failed() {
			return
		}
	}
}

func exploreSchedule(t *testing.T, rng *rand.Rand, procs, opsPerProc, trial int) {
	t.Helper()
	q, err := New[int](procs)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle[int], procs)
	for i := range handles {
		handles[i] = q.MustHandle(i)
	}

	// Script the operations.
	var script [][]*schedOp
	nextVal := 1
	var all []*schedOp
	for p := 0; p < procs; p++ {
		var ops []*schedOp
		for s := 0; s < opsPerProc; s++ {
			op := &schedOp{proc: p, isEnq: rng.Intn(2) == 0, value: nextVal}
			nextVal++
			ops = append(ops, op)
			all = append(all, op)
		}
		script = append(script, ops)
	}

	// Enumerate internal-node paths for refresh actions.
	var paths []string
	var walkPaths func(v int, path string)
	walkPaths = func(v int, path string) {
		if q.isLeaf(v) {
			return
		}
		paths = append(paths, path)
		walkPaths(2*v, path+"L")
		walkPaths(2*v+1, path+"R")
	}
	walkPaths(rootIdx, "")

	// Random schedule: interleave appends with refreshes of random nodes.
	// Protocol constraint: a process may invoke its next operation only
	// after the previous one completed, i.e. was propagated to the root
	// (otherwise one block could absorb two operations of the same process,
	// a state unreachable in real executions — Lemma 21).
	appended := make([]int, procs)
	pendingAppends := procs * opsPerProc
	stall := 0
	for pendingAppends > 0 {
		if stall > 50 {
			// Random refreshes are not making progress; run a full
			// propagation for some process with a pending previous op.
			p := rng.Intn(procs)
			handles[p].StepPropagate()
			stall = 0
			continue
		}
		if rng.Intn(3) == 0 { // refresh a random node
			path := paths[rng.Intn(len(paths))]
			if _, err := q.StepRefresh(handles[rng.Intn(procs)], path); err != nil {
				t.Fatalf("trial %d: refresh: %v", trial, err)
			}
			continue
		}
		p := rng.Intn(procs)
		if appended[p] == len(script[p]) {
			stall++
			continue
		}
		if appended[p] > 0 {
			prev := script[p][appended[p]-1]
			if !propagatedToRoot(q, q.numLeaves+p, prev.idx) {
				stall++
				continue
			}
		}
		op := script[p][appended[p]]
		if op.isEnq {
			op.idx = handles[p].StepEnqueue(op.value)
		} else {
			op.idx = handles[p].StepDequeue()
		}
		appended[p]++
		pendingAppends--
		stall = 0
	}
	// A few more random refreshes mid-state.
	for k := 0; k < rng.Intn(6); k++ {
		path := paths[rng.Intn(len(paths))]
		if _, err := q.StepRefresh(handles[rng.Intn(procs)], path); err != nil {
			t.Fatal(err)
		}
	}
	// Final full propagation so every operation reaches the root.
	for p := 0; p < procs; p++ {
		handles[p].StepPropagate()
	}

	// Extract the linearization from the root.
	root := &q.tree()[rootIdx]
	opByRef := map[[2]int64]*schedOp{}
	for _, op := range all {
		opByRef[[2]int64{int64(op.proc), op.idx}] = op
	}
	seen := map[[2]int64]bool{}
	lastIdx := make(map[int]int64)
	var queueState []int
	wantResp := map[*schedOp]struct {
		val int
		ok  bool
	}{}
	for b := int64(1); root.blocks.Get(b) != nil; b++ {
		enqs, deqs := expandLeafOps(q, rootIdx, b)
		for _, ref := range enqs {
			op := opByRef[ref]
			if op == nil || !op.isEnq {
				t.Fatalf("trial %d: root block %d lists unknown/wrong enqueue %v", trial, b, ref)
			}
			if seen[ref] {
				t.Fatalf("trial %d: op %v appears twice", trial, ref)
			}
			seen[ref] = true
			if ref[1] <= lastIdx[op.proc] {
				t.Fatalf("trial %d: per-process order violated for proc %d", trial, op.proc)
			}
			lastIdx[op.proc] = ref[1]
			queueState = append(queueState, op.value)
		}
		for _, ref := range deqs {
			op := opByRef[ref]
			if op == nil || op.isEnq {
				t.Fatalf("trial %d: root block %d lists unknown/wrong dequeue %v", trial, b, ref)
			}
			if seen[ref] {
				t.Fatalf("trial %d: op %v appears twice", trial, ref)
			}
			seen[ref] = true
			if ref[1] <= lastIdx[op.proc] {
				t.Fatalf("trial %d: per-process order violated for proc %d", trial, op.proc)
			}
			lastIdx[op.proc] = ref[1]
			if len(queueState) == 0 {
				wantResp[op] = struct {
					val int
					ok  bool
				}{0, false}
			} else {
				wantResp[op] = struct {
					val int
					ok  bool
				}{queueState[0], true}
				queueState = queueState[1:]
			}
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("trial %d: linearization has %d ops, appended %d", trial, len(seen), len(all))
	}

	// The queue's own response machinery must agree with the replay.
	for _, op := range all {
		if op.isEnq {
			continue
		}
		want := wantResp[op]
		got, ok := handles[op.proc].StepFinishDequeue(op.idx)
		if ok != want.ok || (ok && got != want.val) {
			t.Fatalf("trial %d: proc %d dequeue #%d = (%d, %v), replay gives (%d, %v)\nschedule: %s",
				trial, op.proc, op.idx, got, ok, want.val, want.ok, describe(script))
		}
	}
}

func describe(script [][]*schedOp) string {
	out := ""
	for p, ops := range script {
		out += fmt.Sprintf("P%d:", p)
		for _, op := range ops {
			if op.isEnq {
				out += fmt.Sprintf(" Enq(%d)", op.value)
			} else {
				out += " Deq"
			}
		}
		out += "; "
	}
	return out
}

// propagatedToRoot reports whether leaf block b is contained in some block
// of the root, by following end indices upward.
func propagatedToRoot[T any](q *Queue[T], v int, b int64) bool {
	for v != rootIdx {
		dir := childDir(v)
		parent := &q.tree()[v>>1]
		found := int64(-1)
		for s := int64(1); parent.blocks.Get(s) != nil; s++ {
			if innerOf(parent.blocks.Get(s)).end(dir) >= b {
				found = s
				break
			}
		}
		if found < 0 {
			return false
		}
		v, b = v>>1, found
	}
	return true
}
