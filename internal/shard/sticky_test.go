package shard

import "testing"

// TestStickyBudgetCannotStarveShards: a consumer whose home never empties
// (it enqueues two values into its home for every value it dequeues) must
// still reach a marker value parked in another shard. The sticky shard
// serves at most stickyPulls calls in a row before the handle samples the
// fabric again, and a sampled shard that holds the marker is taken when the
// other sample is one of the two empty shards, so the marker comes out
// within a few budgets. A dequeue rule that visits a nonempty home first
// never leaves it and never returns the marker. Single goroutine, so the
// verdict and the call count are deterministic.
func TestStickyBudgetCannotStarveShards(t *testing.T) {
	const k, marker = 4, -1
	backends(t, func(t *testing.T, b Backend) {
		q, err := New[int](k, WithBackend(b), WithMaxHandles(4))
		if err != nil {
			t.Fatal(err)
		}
		cons := mustAcquire(t, q)
		defer cons.Release()
		other := mustAcquire(t, q)
		if other.Home() == cons.Home() {
			t.Fatalf("both leases have home %d", cons.Home())
		}
		if err := other.Enqueue(marker); err != nil {
			t.Fatal(err)
		}
		other.Release()

		next := 0
		feedHome := func(m int) {
			for ; m > 0; m-- {
				if err := cons.Enqueue(next); err != nil {
					t.Fatal(err)
				}
				next++
			}
		}
		feedHome(1)
		const limit = 64 * (stickyPulls + 1)
		for call := 1; call <= limit; call++ {
			v, ok := cons.Dequeue()
			if !ok {
				t.Fatalf("call %d: the fabric reads empty with the home fed", call)
			}
			if v == marker {
				t.Logf("marker out at call %d", call)
				return
			}
			feedHome(2)
		}
		t.Fatalf("the marker in shard %d is still queued after %d Dequeue calls from home %d",
			other.Home(), limit, cons.Home())
	})
}

// TestStickyShardServesRun: once a shard serves a call, the handle's next
// stickyPulls calls come from that shard while its root reads nonempty, so
// a consumer with an empty home pulls one contiguous FIFO run of a
// producer's values rather than alternating between the two full shards.
func TestStickyShardServesRun(t *testing.T) {
	const k, perProducer = 4, 3 * stickyPulls
	backends(t, func(t *testing.T, b Backend) {
		q, err := New[int](k, WithBackend(b), WithMaxHandles(4))
		if err != nil {
			t.Fatal(err)
		}
		cons := mustAcquire(t, q)
		defer cons.Release()
		for p := 1; p <= 2; p++ {
			prod := mustAcquire(t, q)
			for i := 0; i < perProducer; i++ {
				if err := prod.Enqueue(p*perProducer + i); err != nil {
					t.Fatal(err)
				}
			}
			defer prod.Release()
		}
		first, ok := cons.Dequeue()
		if !ok {
			t.Fatal("the first Dequeue found the fabric empty")
		}
		for call := 2; call <= stickyPulls+1; call++ {
			v, ok := cons.Dequeue()
			if want := first + call - 1; !ok || v != want {
				t.Fatalf("call %d = (%d, %v), want (%d, true): the run from the shard that served call 1 broke",
					call, v, ok, want)
			}
		}
		if n := cons.Drain(nil); n != 2*perProducer-(stickyPulls+1) {
			t.Fatalf("drained %d after the run, want %d", n, 2*perProducer-(stickyPulls+1))
		}
	})
}

func mustAcquire[T any](t *testing.T, q *Queue[T]) *Handle[T] {
	t.Helper()
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	return h
}
