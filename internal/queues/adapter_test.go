package queues_test

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/queues"
	"repro/internal/queues/queuetest"
	"repro/internal/shard"
)

func TestNRConformance(t *testing.T) {
	queuetest.Run(t, queues.Factory{Name: "nr-queue", New: queues.NewNR})
}

func TestBoundedConformance(t *testing.T) {
	queuetest.Run(t, queues.Factory{Name: "nr-bounded", New: queues.NewBounded})
}

func TestBoundedTinyGCConformance(t *testing.T) {
	queuetest.Run(t, queues.Factory{
		Name: "nr-bounded-g2",
		New:  func(p int) (queues.Queue, error) { return queues.NewBoundedGC(p, 2) },
	})
}

// TestShardedConformance runs the full FIFO conformance suite against a
// single-shard fabric: at k=1 the cross-shard relaxation vanishes, so the
// fabric must behave exactly like the queue it wraps. (At k>1 the suite's
// global-FIFO sequential model does not apply; the fabric's own relaxed
// semantics are tested in internal/shard.)
func TestShardedConformance(t *testing.T) {
	queuetest.Run(t, queues.Factory{
		Name: "sharded-1(core)",
		New:  func(p int) (queues.Queue, error) { return queues.NewSharded(p, 1, shard.BackendCore) },
	})
}

func TestShardedBoundedConformance(t *testing.T) {
	queuetest.Run(t, queues.Factory{
		Name: "sharded-1(bounded)",
		New:  func(p int) (queues.Queue, error) { return queues.NewSharded(p, 1, shard.BackendBounded) },
	})
}

func TestCounterPassthrough(t *testing.T) {
	// SetCounter must thread through every adapter so step accounting works.
	for _, f := range []queues.Factory{
		{Name: "nr-queue", New: queues.NewNR},
		{Name: "nr-bounded", New: queues.NewBounded},
		{Name: "sharded", New: func(p int) (queues.Queue, error) {
			return queues.NewSharded(p, 4, shard.BackendCore)
		}},
	} {
		q, err := f.New(2)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		h, err := q.Handle(0)
		if err != nil {
			t.Fatal(err)
		}
		c := &metrics.Counter{}
		h.SetCounter(c)
		h.Enqueue(1)
		if _, ok := h.Dequeue(); !ok {
			t.Fatalf("%s: dequeue failed", f.Name)
		}
		if c.TotalOps() != 2 || c.TotalSteps() == 0 {
			t.Errorf("%s: counter not threaded: ops=%d steps=%d", f.Name, c.TotalOps(), c.TotalSteps())
		}
	}
}

func TestQueueNames(t *testing.T) {
	nr, _ := queues.NewNR(1)
	if nr.Name() != "nr-queue" {
		t.Errorf("Name = %q", nr.Name())
	}
	b, _ := queues.NewBounded(1)
	if b.Name() != "nr-bounded" {
		t.Errorf("Name = %q", b.Name())
	}
	s, _ := queues.NewSharded(1, 8, shard.BackendCore)
	if s.Name() != "sharded-8(core)" {
		t.Errorf("Name = %q", s.Name())
	}
}
