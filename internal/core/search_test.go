package core

// Tests for the root search's hint (searchRootForEnqueue): whatever the
// hint, the answer is the plain binary search's, and the reads stay within
// a constant of the paper's doubling search.

import (
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// TestRootSearchHint builds a root history from a single-goroutine script
// of singles and batches on four handles, then searches every rank e of
// every root block b (e <= sumEnq(b)) from the hints a handle can hold:
// none (0), the oldest block (1), around the answer be (be-1, be, be+1),
// b, past b (b+1), and a random one. Each search must return what the plain
// binary search returns together with the block before it, must leave its
// answer as the next hint, and must read no more than the doubling search
// (the search from hint 0) plus hintProbes+2.
func TestRootSearchHint(t *testing.T) {
	const procs = 4
	q, err := New[int](procs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	next, live := 0, 0
	for range 400 {
		h := q.MustHandle(rng.Intn(procs))
		switch r := rng.Intn(10); {
		case r < 3:
			h.Enqueue(next)
			next++
			live++
		case r < 5:
			es := make([]int, 1+rng.Intn(6))
			for i := range es {
				es[i] = next
				next++
			}
			h.EnqueueBatch(es)
			live += len(es)
		case r < 8:
			if _, ok := h.Dequeue(); ok {
				live--
			}
		default:
			_, got := h.DequeueBatch(1 + rng.Intn(8))
			live -= got
		}
	}
	if live <= 0 {
		t.Fatalf("script left %d values; the history should end non-empty", live)
	}

	h := q.MustHandle(0)
	var c metrics.Counter
	h.SetCounter(&c)
	defer h.SetCounter(nil)
	search := func(hint, b, e int64, plain bool) (int64, *block, int64) {
		h.rootHint = hint
		q.plainRootSearch = plain
		defer func() { q.plainRootSearch = false }()
		r0 := c.Reads
		be, prev := h.searchRootForEnqueue(b, e)
		if h.rootHint != be {
			t.Fatalf("b=%d e=%d hint=%d: hint left at %d, want the answer %d", b, e, hint, h.rootHint, be)
		}
		return be, prev, c.Reads - r0
	}

	root := &q.tree()[rootIdx]
	top := root.head.Load() - 1
	var searches, pairs, fromHint int
	worst := int64(-1 << 62)
	for b := int64(1); b <= top; b++ {
		for e := int64(1); e <= root.blocks.Get(b).sumEnq; e++ {
			want, _, _ := search(0, b, e, true)
			wantPrev := root.blocks.Get(want - 1)
			_, _, doubling := search(0, b, e, false)
			pairs++
			for _, hint := range []int64{0, 1, want - 1, want, want + 1, b, b + 1, rng.Int63n(b + 2)} {
				be, prev, reads := search(hint, b, e, false)
				if be != want || prev != wantPrev {
					t.Fatalf("b=%d e=%d hint=%d: search = (%d, %p), want (%d, %p)", b, e, hint, be, prev, want, wantPrev)
				}
				if extra := reads - doubling; extra > hintProbes+2 {
					t.Fatalf("b=%d e=%d hint=%d: %d reads, doubling search %d: more than %d over it",
						b, e, hint, reads, doubling, hintProbes+2)
				} else {
					worst = max(worst, extra)
				}
				searches++
				if hint == want && reads < doubling {
					fromHint++
				}
			}
		}
	}
	t.Logf("%d root blocks, %d searches: at worst %+d reads against the doubling search; from hint == be, fewer reads in %d of %d",
		top, searches, worst, fromHint, pairs)
}
