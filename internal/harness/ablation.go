package harness

// Ablation experiments: disable one design decision at a time and measure
// what it bought (DESIGN.md, experiments A1-A3).

import (
	"fmt"

	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/queues"
)

// coreVariant adapts a core.Queue[int64] built with ablation options.
type coreVariant struct {
	q    *core.Queue[int64]
	name string
}

func (v coreVariant) Name() string { return v.name }
func (v coreVariant) Procs() int   { return v.q.Procs() }

func (v coreVariant) Handle(i int) (queues.Handle, error) {
	h, err := v.q.Handle(i)
	if err != nil {
		return nil, err
	}
	return coreVariantHandle{h}, nil
}

type coreVariantHandle struct {
	h *core.Handle[int64]
}

func (h coreVariantHandle) Enqueue(v int64)               { h.h.Enqueue(v) }
func (h coreVariantHandle) Dequeue() (int64, bool)        { return h.h.Dequeue() }
func (h coreVariantHandle) SetCounter(c *metrics.Counter) { h.h.SetCounter(c) }

// ExpAblationSearch (A1, Lemma 20): the paper's root search — here started
// at the handle's hint, with the doubling search behind it — keeps a
// dequeue's root search at O(log q) even after the root has accumulated a
// long block history; a plain binary search over the whole history grows
// with the total operation count.
func ExpAblationSearch(p, queueSize int, agingRounds []int, opsPerRound int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "A1",
		Title: fmt.Sprintf("Ablation: doubling search vs plain binary search (p=%d, q≈%d)", p, queueSize),
		Columns: []string{"total ops so far", "doubling steps/op", "plain steps/op",
			"plain/doubling"},
		Notes: []string{
			"Queue size is held constant while the root history grows; only the plain-search variant's cost climbs with history length (Lemma 20 ablation).",
			"The doubling column is the default search: it starts at the root block the handle's previous search found and falls back to the doubling search from the dequeue's root block.",
		},
	}
	build := func(opts ...core.Option) (*core.Queue[int64], error) {
		q, err := core.New[int64](p, opts...)
		if err != nil {
			return nil, err
		}
		h, err := q.Handle(0)
		if err != nil {
			return nil, err
		}
		for i := 0; i < queueSize; i++ {
			h.Enqueue(int64(-i - 1))
		}
		return q, nil
	}
	doubling, err := build()
	if err != nil {
		return nil, err
	}
	plain, err := build(core.WithPlainRootSearch())
	if err != nil {
		return nil, err
	}
	totalOps := 0
	for _, rounds := range agingRounds {
		var lastDoubling, lastPlain float64
		for _, variant := range []struct {
			q    *core.Queue[int64]
			dest *float64
		}{{doubling, &lastDoubling}, {plain, &lastPlain}} {
			wrapped := coreVariant{q: variant.q, name: "variant"}
			// Age the root history, then measure a fresh window.
			if _, err := RunPairs(wrapped, p, rounds*opsPerRound, seed); err != nil {
				return nil, err
			}
			res, err := RunPairs(wrapped, p, opsPerRound, seed+1)
			if err != nil {
				return nil, err
			}
			*variant.dest = res.Summary.StepsPerOp
		}
		totalOps += (rounds + 1) * opsPerRound * p
		ratio := 0.0
		if lastDoubling > 0 {
			ratio = lastPlain / lastDoubling
		}
		t.AddRow(totalOps, lastDoubling, lastPlain, ratio)
	}
	return t, nil
}

// ExpAblationRefresh (A2, Lemma 10): double-Refresh vs naive
// retry-until-success propagation. The spinning variant stays linearizable
// but is only lock-free; under contention it issues more CAS attempts and
// has no per-operation step bound.
func ExpAblationRefresh(ps []int, opsPerProc int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "Ablation: double-Refresh vs spin-until-success propagation",
		Columns: []string{"p", "double steps/op", "double cas/op", "spin steps/op", "spin cas/op", "spin worst op"},
		Notes: []string{
			"The spinning variant loses the wait-freedom bound: its worst operation can retry arbitrarily under contention.",
		},
	}
	for _, p := range ps {
		var rows [2]metrics.Summary
		for k, opts := range [][]core.Option{nil, {core.WithSpinningRefresh()}} {
			q, err := core.New[int64](p, opts...)
			if err != nil {
				return nil, err
			}
			res, err := RunPairs(coreVariant{q: q, name: "variant"}, p, opsPerProc, seed)
			if err != nil {
				return nil, err
			}
			rows[k] = res.Summary
		}
		t.AddRow(p, rows[0].StepsPerOp, rows[0].CASPerOp,
			rows[1].StepsPerOp, rows[1].CASPerOp, rows[1].MaxOpSteps)
	}
	return t, nil
}

// ExpAblationGC (A3, Section 6): sensitivity of the bounded queue to the GC
// interval G. Small G wastes steps on constant collection; large G wastes
// space. The paper's G = p^2 ceil(log2 p) balances the two so GC adds O(1)
// amortized tree operations per op.
func ExpAblationGC(p int, gs []int64, opsPerProc int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   fmt.Sprintf("Ablation: GC interval G (p=%d, pairs workload)", p),
		Columns: []string{"G", "steps/op", "live blocks after run", "max node blocks"},
	}
	for _, g := range gs {
		q, err := bounded.New[int64](p, bounded.WithGCInterval(g))
		if err != nil {
			return nil, err
		}
		wrapped := boundedVariant{q}
		res, err := RunPairs(wrapped, p, opsPerProc, seed)
		if err != nil {
			return nil, err
		}
		counts := q.BlockCounts()
		var total, maxNode int64
		for _, c := range counts {
			total += c
			if c > maxNode {
				maxNode = c
			}
		}
		t.AddRow(g, res.Summary.StepsPerOp, total, maxNode)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("paper default for p=%d: G=%d", p,
		func() int64 { q, _ := bounded.New[int64](p); return q.GCInterval() }()))
	return t, nil
}

// boundedVariant adapts a bounded.Queue[int64] with custom options.
type boundedVariant struct {
	q *bounded.Queue[int64]
}

func (v boundedVariant) Name() string { return "nr-bounded-variant" }
func (v boundedVariant) Procs() int   { return v.q.Procs() }

func (v boundedVariant) Handle(i int) (queues.Handle, error) {
	h, err := v.q.Handle(i)
	if err != nil {
		return nil, err
	}
	return boundedVariantHandle{h}, nil
}

type boundedVariantHandle struct {
	h *bounded.Handle[int64]
}

func (h boundedVariantHandle) Enqueue(v int64)               { h.h.Enqueue(v) }
func (h boundedVariantHandle) Dequeue() (int64, bool)        { return h.h.Dequeue() }
func (h boundedVariantHandle) SetCounter(c *metrics.Counter) { h.h.SetCounter(c) }
