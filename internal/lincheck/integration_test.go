package lincheck_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/baseline/faaqueue"
	"repro/internal/baseline/kpqueue"
	"repro/internal/baseline/msqueue"
	"repro/internal/baseline/mutexqueue"
	"repro/internal/baseline/twolock"
	"repro/internal/lincheck"
	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/shard"
)

// TestRealQueuesPassLinearizabilityCheck records concurrent histories from
// every queue implementation and runs the bad-pattern checker: the paper's
// queue (both variants), the single-shard fabric over each (where the
// cross-shard relaxation vanishes) and all baselines must produce
// violation-free histories.
func TestRealQueuesPassLinearizabilityCheck(t *testing.T) {
	factories := []queues.Factory{
		{Name: "nr-queue", New: queues.NewNR},
		{Name: "nr-bounded", New: queues.NewBounded},
		{Name: "nr-bounded-g3", New: func(p int) (queues.Queue, error) { return queues.NewBoundedGC(p, 3) }},
		{Name: "sharded-1(core)", New: func(p int) (queues.Queue, error) { return queues.NewSharded(p, 1, shard.BackendCore) }},
		{Name: "sharded-1(bounded)", New: func(p int) (queues.Queue, error) { return queues.NewSharded(p, 1, shard.BackendBounded) }},
		{Name: "ms-queue", New: func(p int) (queues.Queue, error) { return msqueue.New(p) }},
		{Name: "faa-seg", New: func(p int) (queues.Queue, error) { return faaqueue.New(p) }},
		{Name: "kp-queue", New: func(p int) (queues.Queue, error) { return kpqueue.New(p) }},
		{Name: "two-lock", New: func(p int) (queues.Queue, error) { return twolock.New(p) }},
		{Name: "mutex", New: func(p int) (queues.Queue, error) { return mutexqueue.New(p) }},
	}
	const procs = 6
	const opsPerProc = 2500
	for _, f := range factories {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			q, err := f.New(procs)
			if err != nil {
				t.Fatal(err)
			}
			rec := lincheck.NewRecorder(procs)
			var wg sync.WaitGroup
			for p := 0; p < procs; p++ {
				raw, err := q.Handle(p)
				if err != nil {
					t.Fatal(err)
				}
				h := rec.Wrap(raw, p)
				wg.Add(1)
				go func(p int, h queues.Handle) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p)))
					next := int64(0)
					for s := 0; s < opsPerProc; s++ {
						if rng.Intn(2) == 0 {
							h.Enqueue(int64(p)<<32 | next)
							next++
						} else {
							h.Dequeue()
						}
					}
				}(p, h)
			}
			wg.Wait()
			events := rec.Events()
			if len(events) != procs*opsPerProc {
				t.Fatalf("recorded %d events, want %d", len(events), procs*opsPerProc)
			}
			if vs := lincheck.Check(events); len(vs) > 0 {
				for i, v := range vs {
					if i >= 5 {
						t.Errorf("... and %d more", len(vs)-5)
						break
					}
					t.Errorf("violation: %v", v)
				}
			}
		})
	}
}

// TestCheckerCatchesBrokenQueue sanity-checks the whole pipeline by running
// it against a deliberately broken queue (a LIFO stack masquerading as a
// queue): the checker must flag the history.
func TestCheckerCatchesBrokenQueue(t *testing.T) {
	const procs = 4
	q := newBrokenStack(procs)
	rec := lincheck.NewRecorder(procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		raw, _ := q.Handle(p)
		h := rec.Wrap(raw, p)
		wg.Add(1)
		go func(p int, h queues.Handle) {
			defer wg.Done()
			for s := int64(0); s < 400; s++ {
				h.Enqueue(int64(p)<<32 | s)
				if s%2 == 1 {
					h.Dequeue()
					h.Dequeue()
				}
			}
		}(p, h)
	}
	wg.Wait()
	if vs := lincheck.Check(rec.Events()); len(vs) == 0 {
		t.Fatal("LIFO stack passed the FIFO linearizability check")
	}
}

// brokenStack is a mutex-guarded LIFO presented through the queues.Queue
// interface — a deliberately wrong "queue".
type brokenStack struct {
	mu      sync.Mutex
	items   []int64
	procs   int
	handles []brokenHandle
}

func newBrokenStack(procs int) *brokenStack {
	s := &brokenStack{procs: procs}
	s.handles = make([]brokenHandle, procs)
	for i := range s.handles {
		s.handles[i] = brokenHandle{s: s}
	}
	return s
}

func (s *brokenStack) Name() string { return "broken-stack" }
func (s *brokenStack) Procs() int   { return s.procs }

func (s *brokenStack) Handle(i int) (queues.Handle, error) {
	if i < 0 || i >= s.procs {
		return nil, fmt.Errorf("broken-stack: bad handle %d", i)
	}
	return &s.handles[i], nil
}

type brokenHandle struct {
	s *brokenStack
}

func (h *brokenHandle) Enqueue(v int64) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	h.s.items = append(h.s.items, v)
}

func (h *brokenHandle) Dequeue() (int64, bool) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if len(h.s.items) == 0 {
		return 0, false
	}
	v := h.s.items[len(h.s.items)-1] // LIFO: wrong end
	h.s.items = h.s.items[:len(h.s.items)-1]
	return v, true
}

func (h *brokenHandle) SetCounter(c *metrics.Counter) {}
