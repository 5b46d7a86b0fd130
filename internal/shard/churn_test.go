package shard

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolChurnAcquireRelease hammers lease churn concurrently with queue
// traffic: every goroutine repeatedly Acquires a handle, pushes a burst of
// operations through it (exercising the per-sub-handle block arenas
// across lease boundaries — sub-handles are recycled to the next lessee of
// the slot, arenas and all), and Releases. Run under
// -race this is the arena's aliasing test: a block recycled by one lease
// and reused by the next must never be reachable from two owners at once.
// The final conservation check catches any value lost or duplicated by a
// mis-recycled block.
func TestPoolChurnAcquireRelease(t *testing.T) {
	for _, backend := range []Backend{BackendCore, BackendBounded} {
		t.Run(string(backend), func(t *testing.T) {
			q, err := New[int](4, WithBackend(backend), WithMaxHandles(8))
			if err != nil {
				t.Fatal(err)
			}
			const (
				goroutines = 6
				leases     = 40
				burst      = 50
			)
			var enqueued, dequeued atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for l := 0; l < leases; l++ {
						h, err := q.Acquire()
						if err != nil {
							// All 8 slots leased by the other goroutines;
							// churn on and retry next round.
							continue
						}
						for i := 0; i < burst; i++ {
							if err := h.Enqueue(g*1000000 + l*1000 + i); err != nil {
								t.Error(err)
								break
							}
							enqueued.Add(1)
							if i%2 == 0 {
								if _, ok := h.Dequeue(); ok {
									dequeued.Add(1)
								}
							}
						}
						h.Release()
					}
				}(g)
			}
			wg.Wait()
			h, err := q.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer h.Release()
			drained := int64(h.Drain(nil))
			if got, want := dequeued.Load()+drained, enqueued.Load(); got != want {
				t.Fatalf("conservation: consumed %d of %d enqueued values", got, want)
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after full drain", q.Len())
			}
		})
	}
}
