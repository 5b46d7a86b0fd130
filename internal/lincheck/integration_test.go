package lincheck_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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

// script is one process's share of a recorded workload.
type script func(p int, h queues.Handle)

// mixedScript is the original row: every process flips a fair coin between
// Enqueue and Dequeue.
func mixedScript(p int, h queues.Handle) {
	rng := rand.New(rand.NewSource(int64(p)))
	next := int64(0)
	for s := 0; s < 2500; s++ {
		if rng.Intn(2) == 0 {
			h.Enqueue(int64(p)<<32 | next)
			next++
		} else {
			h.Dequeue()
		}
	}
}

// pollingScript is a null-heavy workload: the first `enqueuers` processes
// enqueue 2500 values between them, yielding after every value (steady) or
// after every burst of 1-4 values (bursty); the others poll — Dequeue in a
// spin for as long as an enqueuer is still running (at most 20000 polls
// each), yielding only on every 8th empty answer so the enqueuers get a
// turn on a small machine — and then drain. The queue crosses empty about
// once per value or burst while dequeues are in flight on it.
func pollingScript(enqueuers int, bursty bool) script {
	var enqueuing atomic.Int32
	enqueuing.Store(int32(enqueuers))
	return func(p int, h queues.Handle) {
		if p < enqueuers {
			rng := rand.New(rand.NewSource(int64(p)))
			for next, n := int64(0), int64(2500/enqueuers); next < n; {
				burst := 1
				if bursty {
					burst += rng.Intn(4)
				}
				for ; burst > 0 && next < n; burst-- {
					h.Enqueue(int64(p)<<32 | next)
					next++
				}
				runtime.Gosched()
			}
			enqueuing.Add(-1)
			return
		}
		for s, nulls := 0, 0; s < 20000; s++ {
			racing := enqueuing.Load() > 0
			if _, ok := h.Dequeue(); ok {
				continue
			}
			if !racing {
				return // drained after the last enqueuer finished
			}
			if nulls++; nulls%8 == 0 {
				runtime.Gosched()
			}
		}
	}
}

// TestRealQueuesPassLinearizabilityCheck records concurrent histories from
// every queue implementation and runs the bad-pattern checker: the paper's
// queue (both variants), the single-shard fabric over each (where the
// cross-shard relaxation vanishes) and all baselines must produce
// violation-free histories.
//
// The paper's queues and the k=1 fabric also run two null-heavy rows, where
// dequeues keep racing enqueues across an empty queue. They are the gate for
// any dequeue path that answers "empty" without installing a block (the
// fabric's root-read null): such an answer is only sound if it is never
// older than an enqueue that returned before the dequeue began, which is
// the impossible-empty pattern. Each of those rows fails if fewer than 30%
// of its dequeues were null, so it cannot silently stop covering the race.
func TestRealQueuesPassLinearizabilityCheck(t *testing.T) {
	sharded1 := func(b shard.Backend) func(int) (queues.Queue, error) {
		return func(p int) (queues.Queue, error) { return queues.NewSharded(p, 1, b) }
	}
	rows := []struct {
		name      string
		new       func(procs int) (queues.Queue, error)
		nullHeavy bool // also run the two polling scripts
	}{
		{name: "nr-queue", new: queues.NewNR, nullHeavy: true},
		{name: "nr-bounded", new: queues.NewBounded, nullHeavy: true},
		{name: "nr-bounded-g3", new: func(p int) (queues.Queue, error) { return queues.NewBoundedGC(p, 3) }},
		{name: "sharded-1(core)", new: sharded1(shard.BackendCore), nullHeavy: true},
		{name: "sharded-1(bounded)", new: sharded1(shard.BackendBounded), nullHeavy: true},
		{name: "ms-queue", new: func(p int) (queues.Queue, error) { return msqueue.New(p) }},
		{name: "faa-seg", new: func(p int) (queues.Queue, error) { return faaqueue.New(p) }},
		{name: "kp-queue", new: func(p int) (queues.Queue, error) { return kpqueue.New(p) }},
		{name: "two-lock", new: func(p int) (queues.Queue, error) { return twolock.New(p) }},
		{name: "mutex", new: func(p int) (queues.Queue, error) { return mutexqueue.New(p) }},
	}
	for _, r := range rows {
		recordAndCheck(t, r.name, r.new, mixedScript, 0)
		if r.nullHeavy {
			recordAndCheck(t, r.name+"/1enq-5deq", r.new, pollingScript(1, false), 0.3)
			recordAndCheck(t, r.name+"/bursty", r.new, pollingScript(2, true), 0.3)
		}
	}
}

// recordAndCheck runs one row as a subtest: six processes run the script on
// a fresh queue under the recorder, at least minNullFrac of the recorded
// dequeues must have been null, and the history must pass the checker.
func recordAndCheck(t *testing.T, name string, newQueue func(procs int) (queues.Queue, error), run script, minNullFrac float64) {
	const procs = 6
	t.Run(name, func(t *testing.T) {
		q, err := newQueue(procs)
		if err != nil {
			t.Fatal(err)
		}
		rec := lincheck.NewRecorder(procs)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < procs; p++ {
			raw, err := q.Handle(p)
			if err != nil {
				t.Fatal(err)
			}
			h := rec.Wrap(raw, p)
			wg.Add(1)
			go func(p int, h queues.Handle) {
				defer wg.Done()
				<-start
				run(p, h)
			}(p, h)
		}
		close(start)
		wg.Wait()
		events := rec.Events()
		var deqs, nulls int
		for _, e := range events {
			if e.Kind == lincheck.KindDequeue {
				deqs++
				if !e.OK {
					nulls++
				}
			}
		}
		if len(events)-deqs < 2500 || deqs < 2500 {
			t.Fatalf("recorded %d enqueues and %d dequeues, want at least 2500 of each", len(events)-deqs, deqs)
		}
		if frac := float64(nulls) / float64(deqs); frac < minNullFrac {
			t.Errorf("%d of %d dequeues were null (%.2f), want at least %.2f: the row no longer crosses empty",
				nulls, deqs, frac, minNullFrac)
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
