// Command sharded demonstrates the sharded queue fabric as the work spine
// of a bursty, dynamically-scaled pipeline — the production shape the
// paper's static-p model does not directly support. Short-lived producer
// goroutines come and go, each leasing a handle slot from the dynamic
// registry (Acquire/Release) instead of being assigned a fixed process
// number; consumers roam the shards with d-random-choice dequeues. The
// fabric preserves FIFO order per shard (and so per producer lease) while
// letting k roots absorb the enqueue load in parallel, then Close+Drain
// shuts the pipeline down without losing an element.
package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro"
)

const (
	shards    = 8
	waves     = 4   // bursts of short-lived producers
	producers = 12  // per wave
	consumers = 4   // long-lived roaming consumers
	perLease  = 500 // items each producer enqueues before exiting
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sharded:", err)
		os.Exit(1)
	}
}

func run() error {
	q, err := repro.NewShardedQueue[int64](shards,
		repro.WithShardMaxHandles(producers+consumers+1))
	if err != nil {
		return err
	}

	// acquire spins until a slot frees up: with waves*producers short-lived
	// goroutines and only producers+consumers+1 slots, leases must recycle.
	acquire := func() *repro.ShardedHandle[int64] {
		for {
			h, err := q.Acquire()
			if err == nil {
				return h
			}
			runtime.Gosched()
		}
	}

	var produced, consumed atomic.Int64
	var consWG, prodWG sync.WaitGroup

	// Long-lived consumers drain the fuller of two sampled shards.
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			h := acquire()
			defer h.Release()
			for {
				if _, ok := h.Dequeue(); ok {
					consumed.Add(1)
					continue
				}
				select {
				case <-done:
					return
				default:
					runtime.Gosched() // fabric momentarily dry; don't spin hot
				}
			}
		}()
	}

	// Bursty producers: each wave spawns fresh goroutines that lease a
	// slot, push their batch to their home shard, and give the slot back.
	for wave := 0; wave < waves; wave++ {
		for p := 0; p < producers; p++ {
			prodWG.Add(1)
			go func(wave, p int) {
				defer prodWG.Done()
				h := acquire()
				defer h.Release()
				base := int64(wave)<<32 | int64(p)<<16
				for i := int64(0); i < perLease; i++ {
					if err := h.Enqueue(base | i); err != nil {
						panic(err) // fabric is not closed while producing
					}
					produced.Add(1)
				}
			}(wave, p)
		}
		prodWG.Wait()
	}

	// Shut down: no more enqueues, let the consumers finish the backlog.
	q.Close()
	close(done)
	consWG.Wait()
	h := acquire()
	residual := h.Drain(func(int64) { consumed.Add(1) })
	h.Release()

	if produced.Load() != consumed.Load() {
		return fmt.Errorf("produced %d but consumed %d", produced.Load(), consumed.Load())
	}
	fmt.Printf("sharded: %d producer leases over %d slots pushed %d items; %d consumers drained them (%d in final drain)\n",
		waves*producers, q.MaxHandles(), produced.Load(), consumers, residual)
	fmt.Printf("sharded: per-shard routing (enqueues/dequeues per shard):\n")
	for _, st := range q.ShardStats() {
		fmt.Printf("  shard %d: %5d enq  %5d deq\n", st.Shard, st.Enqueues, st.Dequeues)
	}
	return nil
}
