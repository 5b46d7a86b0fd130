package treeviz_test

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/treeviz"
)

func buildSnapshot(t *testing.T) core.TreeSnapshot {
	t.Helper()
	q, err := core.New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	h.Enqueue(1)
	h.Enqueue(2)
	h.Dequeue()
	return q.Snapshot()
}

func TestBlockOpsErrors(t *testing.T) {
	snap := buildSnapshot(t)
	if _, _, err := treeviz.BlockOps(snap, "ZZ", 1); err == nil {
		t.Error("unknown path accepted")
	}
	if _, _, err := treeviz.BlockOps(snap, "", 999); err == nil {
		t.Error("out-of-range block accepted")
	}
	if _, _, err := treeviz.BlockOps(snap, "", -1); err == nil {
		t.Error("negative block accepted")
	}
}

func TestBlockOpsDummyIsEmpty(t *testing.T) {
	snap := buildSnapshot(t)
	e, d, err := treeviz.BlockOps(snap, "", 0)
	if err != nil || len(e) != 0 || len(d) != 0 {
		t.Fatalf("dummy block expansion = (%v, %v, %v)", e, d, err)
	}
}

func TestRootLinearizationConsistency(t *testing.T) {
	snap := buildSnapshot(t)
	lin, err := treeviz.RootLinearization(snap)
	if err != nil {
		t.Fatal(err)
	}
	var enqs, deqs int
	for _, rb := range lin {
		enqs += len(rb.Enqueues)
		deqs += len(rb.Dequeues)
	}
	if enqs != 2 || deqs != 1 {
		t.Fatalf("linearization has %d enqueues, %d dequeues", enqs, deqs)
	}
	s := treeviz.FormatLinearization(lin, nil)
	if !strings.Contains(s, "Enq(1)") || !strings.Contains(s, "Deq@P0#") {
		t.Fatalf("formatted linearization %q missing ops", s)
	}
}

func TestRootLinearizationMissingRoot(t *testing.T) {
	if _, err := treeviz.RootLinearization(core.TreeSnapshot{}); err == nil {
		t.Error("empty snapshot accepted")
	}
}

func TestDefaultLabeler(t *testing.T) {
	enq := treeviz.Op{IsEnqueue: true, Element: 7}
	deq := treeviz.Op{LeafID: 3, LeafIndex: 2}
	if got := treeviz.DefaultLabeler(enq); got != "Enq(7)" {
		t.Errorf("enqueue label %q", got)
	}
	if got := treeviz.DefaultLabeler(deq); got != "Deq@P3#2" {
		t.Errorf("dequeue label %q", got)
	}
}

func TestRenderIncludesAllNodes(t *testing.T) {
	snap := buildSnapshot(t)
	out := treeviz.Render(snap, nil)
	for _, want := range []string{"root", "P0", "P1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != len(snap.Nodes) {
		t.Errorf("Render has %d lines for %d nodes", lines, len(snap.Nodes))
	}
}

// TestLinearizationAfterConcurrentRun validates the snapshot/expansion path
// end to end on a quiesced concurrent run: the reconstructed linearization
// must contain every operation exactly once, with per-process operations in
// invocation order (Corollary 6 and Lemma 15, observed through the public
// snapshot API).
func TestLinearizationAfterConcurrentRun(t *testing.T) {
	const procs = 4
	const opsPerProc = 400
	q, err := core.New[int](procs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.MustHandle(p)
			rng := rand.New(rand.NewSource(int64(p)))
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

	lin, err := treeviz.RootLinearization(q.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	type ref struct {
		leaf int
		idx  int64
	}
	seen := map[ref]bool{}
	lastIdx := map[int]int64{}
	count := 0
	check := func(op treeviz.Op) {
		r := ref{op.LeafID, op.LeafIndex}
		if seen[r] {
			t.Fatalf("operation %v appears twice in linearization", r)
		}
		seen[r] = true
		if op.LeafIndex <= lastIdx[op.LeafID] {
			t.Fatalf("per-process order violated at %v", r)
		}
		lastIdx[op.LeafID] = op.LeafIndex
		count++
	}
	for _, rb := range lin {
		for _, op := range rb.Enqueues {
			check(op)
		}
		for _, op := range rb.Dequeues {
			check(op)
		}
	}
	if count != procs*opsPerProc {
		t.Fatalf("linearization has %d operations, want %d", count, procs*opsPerProc)
	}
}

// TestRenderNonPowerOfTwo pins the rendering of a tree whose process count
// is not a power of two. At p=5 the tree has exactly five leaves, so Render
// prints leaf rows P0-P4 and no empty ones, and every internal row holds
// exactly the operations of its two children's rows.
func TestRenderNonPowerOfTwo(t *testing.T) {
	const procs = 5
	q, err := core.New[int](procs)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		for p := 0; p < procs; p++ {
			h := q.MustHandle(p)
			h.Enqueue(10*p + r)
			if (p+r)%2 == 0 {
				h.Dequeue()
			}
		}
	}
	snap := q.Snapshot()
	out := treeviz.Render(snap, nil)

	// Each line is a row name followed by its blocks, "[.]" or
	// "[E:<labels> D:<labels>]" with "-" for none.
	rows := map[string]map[string]bool{}
	var leaves []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		fields := strings.Fields(line)
		ops := map[string]bool{}
		for _, f := range fields[1:] {
			f = strings.Trim(f, "[]")
			for _, side := range []string{"E:", "D:"} {
				if labels, ok := strings.CutPrefix(f, side); ok && labels != "-" {
					for _, l := range strings.Split(labels, ",") {
						ops[l] = true
					}
				}
			}
		}
		rows[fields[0]] = ops
		if strings.HasPrefix(fields[0], "P") {
			leaves = append(leaves, fields[0])
		}
	}
	sort.Strings(leaves)
	if got := strings.Join(leaves, " "); got != "P0 P1 P2 P3 P4" {
		t.Fatalf("leaf rows %q, want P0-P4:\n%s", got, out)
	}
	if len(rows) != 2*procs-1 {
		t.Fatalf("Render has %d rows, want %d:\n%s", len(rows), 2*procs-1, out)
	}

	name := map[string]string{}
	for _, n := range snap.Nodes {
		switch {
		case n.IsRoot:
			name[n.Path] = "root"
		case n.IsLeaf:
			name[n.Path] = fmt.Sprintf("P%d", n.LeafID)
		default:
			name[n.Path] = n.Path
		}
	}
	for _, n := range snap.Nodes {
		row := rows[name[n.Path]]
		if len(row) == 0 {
			t.Errorf("row %s is empty:\n%s", name[n.Path], out)
		}
		if n.IsLeaf {
			continue
		}
		union := map[string]bool{}
		for l := range rows[name[n.Path+"L"]] {
			union[l] = true
		}
		for l := range rows[name[n.Path+"R"]] {
			union[l] = true
		}
		if !maps.Equal(row, union) {
			t.Errorf("row %s holds %v, want its children's %v", name[n.Path], row, union)
		}
	}
}
