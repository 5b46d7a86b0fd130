package harness

// Experiment drivers, one per reproduced table/figure (DESIGN.md Section 2).
// Each returns a Table whose shape mirrors the paper's analytical claim it
// validates. The same functions back cmd/benchqueue and the repository-level
// benchmarks.

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/stats"
)

// DefaultFactories returns every queue implementation under comparison.
func DefaultFactories() []queues.Factory {
	return []queues.Factory{
		{Name: "nr-queue", New: queues.NewNR},
		{Name: "nr-bounded", New: queues.NewBounded},
		{Name: "ms-queue", New: func(p int) (queues.Queue, error) { return newAdapter(p, "ms") }},
		{Name: "faa-seg", New: func(p int) (queues.Queue, error) { return newAdapter(p, "faa") }},
		{Name: "kp-queue", New: func(p int) (queues.Queue, error) { return newAdapter(p, "kp") }},
		{Name: "two-lock", New: func(p int) (queues.Queue, error) { return newAdapter(p, "twolock") }},
		{Name: "mutex", New: func(p int) (queues.Queue, error) { return newAdapter(p, "mutex") }},
	}
}

// ExpCASBound (T1, Proposition 19): worst-case CAS instructions per
// operation. The paper guarantees <= 5 ceil(log2 p) + O(1) CAS per operation
// for the NR-queue, while the MS-queue's CAS count per operation is
// unbounded in the worst case and Theta(p) amortized under contention.
func ExpCASBound(ps []int, opsPerProc int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "T1",
		Title: "CAS instructions per operation (pairs workload)",
		Columns: []string{"p", "bound 5ceil(lg p)+2",
			"nr avg", "nr max1op", "nrB avg", "ms avg", "ms max1op", "faa avg"},
		Notes: []string{
			"nr max1op counts every CAS of the single worst operation; Proposition 19 bounds it by 5*ceil(log2 p) plus the append's constant work.",
			"ms-queue CAS/op grows with contention (CAS retry problem); nr stays logarithmic.",
		},
	}
	for _, p := range ps {
		nr, err := measureCAS(queues.Factory{Name: "nr", New: queues.NewNR}, p, opsPerProc, seed)
		if err != nil {
			return nil, err
		}
		nrb, err := measureCAS(queues.Factory{Name: "nrb", New: queues.NewBounded}, p, opsPerProc, seed)
		if err != nil {
			return nil, err
		}
		ms, err := measureCAS(queues.Factory{Name: "ms", New: func(p int) (queues.Queue, error) { return newAdapter(p, "ms") }}, p, opsPerProc, seed)
		if err != nil {
			return nil, err
		}
		faa, err := measureCAS(queues.Factory{Name: "faa", New: func(p int) (queues.Queue, error) { return newAdapter(p, "faa") }}, p, opsPerProc, seed)
		if err != nil {
			return nil, err
		}
		bound := 5*ceilLog2(p) + 2
		t.AddRow(p, bound, nr.avg, nr.maxOp, nrb.avg, ms.avg, ms.maxOp, faa.avg)
	}
	return t, nil
}

type casStats struct {
	avg   float64
	maxOp int64
}

func measureCAS(f queues.Factory, procs, opsPerProc int, seed int64) (casStats, error) {
	q, err := f.New(procs)
	if err != nil {
		return casStats{}, err
	}
	res, err := RunPairs(q, procs, opsPerProc, seed)
	if err != nil {
		return casStats{}, err
	}
	return casStats{avg: res.Summary.CASPerOp, maxOp: maxCASOneOp(res)}, nil
}

// maxCASOneOp approximates the worst single operation's CAS count: CAS
// attempts dominate MaxOpSteps only for retry-based queues, so we report the
// per-handle ratio ceiling.
func maxCASOneOp(res Result) int64 {
	var worst int64
	for _, c := range res.Counters {
		if c.TotalOps() == 0 {
			continue
		}
		// Upper bound on any single op's CAS count for this handle.
		perOp := (c.CASAttempts + c.TotalOps() - 1) / c.TotalOps()
		if c.MaxOpSteps < perOp {
			perOp = c.MaxOpSteps
		}
		if perOp > worst {
			worst = perOp
		}
	}
	return worst
}

// ExpEnqueueSteps (T2, Theorem 22): enqueue steps grow as O(log p); doubling
// p should add roughly a constant number of steps.
func ExpEnqueueSteps(ps []int, opsPerProc int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "T2",
		Title:   "Enqueue steps per operation vs p (enqueue-only workload)",
		Columns: []string{"p", "steps/op", "delta vs prev", "steps / log2(p)"},
	}
	var xs, ys []float64
	prev := 0.0
	for _, p := range ps {
		q, err := queues.NewNR(p)
		if err != nil {
			return nil, err
		}
		res, err := RunEnqueueOnly(q, p, opsPerProc, seed)
		if err != nil {
			return nil, err
		}
		steps := res.Summary.StepsPerOp
		perLog := steps / float64(ceilLog2(p)+1)
		delta := steps - prev
		if prev == 0 {
			t.AddRow(p, steps, "-", perLog)
		} else {
			t.AddRow(p, steps, delta, perLog)
		}
		prev = steps
		xs = append(xs, float64(p))
		ys = append(ys, steps)
	}
	addFitNote(t, xs, ys)
	return t, nil
}

// ExpDequeueStepsVsP (T3a, Theorem 22): dequeue steps vs p at a fixed queue
// size.
func ExpDequeueStepsVsP(ps []int, prefill, opsPerProc int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "T3a",
		Title:   fmt.Sprintf("Dequeue steps per operation vs p (pairs workload, q≈%d)", prefill),
		Columns: []string{"p", "steps/op", "delta vs prev", "steps / log2^2(p)"},
	}
	var xs, ys []float64
	prev := 0.0
	for _, p := range ps {
		q, err := queues.NewNR(p)
		if err != nil {
			return nil, err
		}
		if err := Prefill(q, prefill); err != nil {
			return nil, err
		}
		res, err := RunPairs(q, p, opsPerProc, seed)
		if err != nil {
			return nil, err
		}
		steps := res.Summary.StepsPerOp
		l := float64(ceilLog2(p) + 1)
		delta := steps - prev
		if prev == 0 {
			t.AddRow(p, steps, "-", steps/(l*l))
		} else {
			t.AddRow(p, steps, delta, steps/(l*l))
		}
		prev = steps
		xs = append(xs, float64(p))
		ys = append(ys, steps)
	}
	addFitNote(t, xs, ys)
	return t, nil
}

// ExpDequeueStepsVsQ (T3b, Theorem 22): dequeue steps vs queue size at fixed
// p; the log q term comes from the root's doubling search (Lemma 20). The
// pairs rows run warm handles, whose root search starts at the block their
// previous search found, so the term is what the cold column shows: the
// first dequeue of a fresh handle, which has no hint.
func ExpDequeueStepsVsQ(p int, prefills []int, opsPerProc int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "T3b",
		Title:   fmt.Sprintf("Dequeue steps per operation vs queue size (p=%d)", p),
		Columns: []string{"q", "steps/op", "delta vs prev", "cold deq steps"},
		Notes: []string{
			"steps/op: Enqueue;Dequeue pairs on warm handles. Each handle's root search starts at the root block its previous search found, so the doubling search rarely runs and the column need not grow with q.",
			"cold deq steps: the first Dequeue of a fresh handle after the prefill. It has no hint, so the doubling search runs back from its root block to the oldest value's, and the column grows with log2 q (Lemma 20).",
		},
	}
	var xs, ys, cold []float64
	prev := 0.0
	for _, prefill := range prefills {
		q, err := queues.NewNR(p)
		if err != nil {
			return nil, err
		}
		if err := Prefill(q, prefill); err != nil {
			return nil, err
		}
		res, err := RunPairs(q, p, opsPerProc, seed)
		if err != nil {
			return nil, err
		}
		c, err := coldDequeueSteps(p, prefill)
		if err != nil {
			return nil, err
		}
		steps := res.Summary.StepsPerOp
		if prev == 0 {
			t.AddRow(prefill, steps, "-", c)
		} else {
			t.AddRow(prefill, steps, steps-prev, c)
		}
		prev = steps
		xs = append(xs, float64(prefill))
		ys = append(ys, steps)
		cold = append(cold, float64(c))
	}
	for _, fit := range []struct {
		name string
		ys   []float64
	}{{"steps/op", ys}, {"cold", cold}} {
		if f, err := stats.FitAgainst(xs, fit.ys, stats.Log2); err == nil {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"fit %s = %.1f + %.2f*log2(q), R^2=%.3f (paper: O(log^2 p + log q))",
				fit.name, f.Intercept, f.Slope, f.R2))
		}
	}
	return t, nil
}

// coldDequeueSteps prefills a fresh p-process queue with n values and
// returns the steps of one Dequeue by handle p-1, whose root search has no
// hint yet.
func coldDequeueSteps(p, n int) (int64, error) {
	q, err := queues.NewNR(p)
	if err != nil {
		return 0, err
	}
	if err := Prefill(q, n); err != nil {
		return 0, err
	}
	h, err := q.Handle(p - 1)
	if err != nil {
		return 0, err
	}
	var c metrics.Counter
	h.SetCounter(&c)
	if _, ok := h.Dequeue(); !ok && n > 0 {
		return 0, fmt.Errorf("harness: cold dequeue on a queue of %d values found it empty", n)
	}
	return c.TotalSteps(), nil
}

// ExpRetryProblem (T4, Sections 1-2): amortized steps per operation across
// implementations as p grows. The MS-queue family grows linearly (CAS retry
// problem); the NR-queue grows polylogarithmically. The table's last column
// shows the crossover: the ratio ms/nr rises above 1 as p grows.
func ExpRetryProblem(ps []int, opsPerProc int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "T4",
		Title:   "Amortized steps per operation (pairs workload): CAS retry problem",
		Columns: []string{"p", "nr", "nr-bounded", "ms", "faa", "kp", "two-lock", "ms/nr"},
		Notes: []string{
			"Paper: ms-queue is Theta(p) amortized in worst-case executions; nr-queue is O(log^2 p).",
			"Steps = shared-memory reads + CAS + writes, per the paper's cost model.",
		},
	}
	for _, p := range ps {
		row := []any{p}
		var nrSteps, msSteps float64
		for _, f := range []struct {
			name string
			mk   func(int) (queues.Queue, error)
		}{
			{"nr", queues.NewNR},
			{"nrb", queues.NewBounded},
			{"ms", func(p int) (queues.Queue, error) { return newAdapter(p, "ms") }},
			{"faa", func(p int) (queues.Queue, error) { return newAdapter(p, "faa") }},
			{"kp", func(p int) (queues.Queue, error) { return newAdapter(p, "kp") }},
			{"twolock", func(p int) (queues.Queue, error) { return newAdapter(p, "twolock") }},
		} {
			q, err := f.mk(p)
			if err != nil {
				return nil, err
			}
			res, err := RunPairs(q, p, opsPerProc, seed)
			if err != nil {
				return nil, err
			}
			row = append(row, res.Summary.StepsPerOp)
			switch f.name {
			case "nr":
				nrSteps = res.Summary.StepsPerOp
			case "ms":
				msSteps = res.Summary.StepsPerOp
			}
		}
		ratio := 0.0
		if nrSteps > 0 {
			ratio = msSteps / nrSteps
		}
		row = append(row, ratio)
		t.AddRow(row...)
	}
	return t, nil
}

// ExpSpaceBound (T5, Theorem 31): live blocks in the bounded queue stay
// O(q_max + p^2 log p) per node regardless of the total operation count.
func ExpSpaceBound(p int, qmax, rounds int) (*Table, error) {
	t := &Table{
		ID:    "T5",
		Title: fmt.Sprintf("Bounded-space queue: live blocks over time (p=%d, q_max=%d)", p, qmax),
		Columns: []string{"ops so far", "total live blocks", "max node blocks",
			"bound 2q+4p+G+1", "unbounded total blocks"},
	}
	raw, err := queues.NewBounded(p)
	if err != nil {
		return nil, err
	}
	bq, ok := raw.(interface{ Unwrap() *bounded.Queue[int64] })
	if !ok {
		return nil, fmt.Errorf("harness: bounded adapter does not expose Unwrap")
	}
	inner := bq.Unwrap()
	h, err := raw.Handle(0)
	if err != nil {
		return nil, err
	}
	g := inner.GCInterval()
	bound := int64(2*qmax+4*p) + g + 1
	unboundedQ, err := core.New[int64](p)
	if err != nil {
		return nil, err
	}
	uh, err := unboundedQ.Handle(0)
	if err != nil {
		return nil, err
	}
	ops := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < qmax; i++ {
			h.Enqueue(int64(r*qmax + i))
			uh.Enqueue(int64(r*qmax + i))
		}
		for i := 0; i < qmax; i++ {
			h.Dequeue()
			uh.Dequeue()
		}
		ops += 2 * qmax
		if r == 0 || (r+1)%(rounds/8+1) == 0 || r == rounds-1 {
			counts := inner.BlockCounts()
			var total, maxNode int64
			for _, c := range counts {
				total += c
				if c > maxNode {
					maxNode = c
				}
			}
			t.AddRow(ops, total, maxNode, bound, unboundedQ.BlocksInstalled())
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("G = %d; per-node bound from Lemma 29/Corollary 30 is 2q_max+4p+1 plus up to G un-collected recent blocks.", g),
		"Without GC the leaf alone would hold one block per operation (last column would grow without bound).")
	return t, nil
}

// ExpBoundedSteps (T6, Theorem 32): amortized steps of the bounded queue,
// including GC work, grow as O(log p log(p+q)).
func ExpBoundedSteps(ps []int, opsPerProc int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "T6",
		Title:   "Bounded queue amortized steps per operation vs p (pairs workload)",
		Columns: []string{"p", "steps/op", "steps / (lg p * lg p)", "unbounded steps/op"},
	}
	for _, p := range ps {
		bq, err := queues.NewBounded(p)
		if err != nil {
			return nil, err
		}
		bres, err := RunPairs(bq, p, opsPerProc, seed)
		if err != nil {
			return nil, err
		}
		uq, err := queues.NewNR(p)
		if err != nil {
			return nil, err
		}
		ures, err := RunPairs(uq, p, opsPerProc, seed)
		if err != nil {
			return nil, err
		}
		l := float64(ceilLog2(p) + 1)
		t.AddRow(p, bres.Summary.StepsPerOp, bres.Summary.StepsPerOp/(l*l), ures.Summary.StepsPerOp)
	}
	t.Notes = append(t.Notes, "Theorem 32: O(log p log(p+q)) amortized; with q=O(p) the normalized column should flatten.")
	return t, nil
}

// ExpThroughput (T7): wall-clock throughput comparison. The paper predicts
// its queue loses to the MS-queue at low contention (higher constant work)
// — the reproduction should show that honestly.
func ExpThroughput(ps []int, opsPerProc int, seed int64) (*Table, error) {
	factories := DefaultFactories()
	cols := []string{"p"}
	for _, f := range factories {
		cols = append(cols, f.Name+" Mop/s")
	}
	t := &Table{
		ID:      "T7",
		Title:   "Throughput (pairs workload), million ops/sec",
		Columns: cols,
		Notes: []string{
			"The paper optimizes worst-case steps, not throughput; MS/FAA queues are expected to win here (Section 7).",
		},
	}
	for _, p := range ps {
		row := []any{p}
		for _, f := range factories {
			q, err := f.New(p)
			if err != nil {
				return nil, err
			}
			res, err := RunPairs(q, p, opsPerProc, seed)
			if err != nil {
				return nil, err
			}
			row = append(row, res.ThroughputOps()/1e6)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExpWaitFree (T8, Corollary 23): worst single-operation step count under
// stalled processes. Wait-freedom bounds every operation individually; the
// lock-based baselines cannot bound it, and the MS-queue's worst operation
// degrades with contention.
func ExpWaitFree(ps []int, opsPerProc int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "T8",
		Title:   "Worst single-operation steps with 1/4 of processes stalling",
		Columns: []string{"p", "nr max", "nr avg", "ms max", "ms avg"},
		Notes: []string{
			"Theorem 22 bounds the nr-queue's worst operation by O(log^2 p + log q); the ms-queue's worst operation grows with contention.",
		},
	}
	for _, p := range ps {
		stalled := p / 4
		if stalled == 0 && p > 1 {
			stalled = 1
		}
		nrQ, err := queues.NewNR(p)
		if err != nil {
			return nil, err
		}
		nr, err := RunWithStalls(nrQ, p, opsPerProc, stalled, 50*time.Microsecond, seed)
		if err != nil {
			return nil, err
		}
		msQ, err := newAdapter(p, "ms")
		if err != nil {
			return nil, err
		}
		ms, err := RunWithStalls(msQ, p, opsPerProc, stalled, 50*time.Microsecond, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(p, nr.Summary.MaxOpSteps, nr.Summary.StepsPerOp,
			ms.Summary.MaxOpSteps, ms.Summary.StepsPerOp)
	}
	return t, nil
}

// addFitNote annotates a table with the best-fitting growth shape.
func addFitNote(t *Table, xs, ys []float64) {
	best, fits, err := stats.BestBasis(xs, ys)
	if err != nil {
		return
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"best-fit growth: %s (R^2=%.3f; linear R^2=%.3f)",
		best, fits[best].R2, fits["x"].R2))
}

func ceilLog2(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}
