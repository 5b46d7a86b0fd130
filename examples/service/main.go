// Command service demonstrates the network queue service: a queued-style
// server fronting the sharded fabric on a loopback port, with producer and
// consumer clients speaking the wire protocol. Each client connection
// leases one fabric handle for its lifetime (so one producer's jobs stay
// FIFO-ordered), pipelined requests are batched server-side into single
// fabric passes, and the final stats snapshot shows the session and lease
// churn the run generated.
//
// Against an externally started server (go run ./cmd/queued), replace the
// Serve call with its address and drop the server shutdown.
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

const (
	shards    = 4
	producers = 3
	consumers = 2
	perProd   = 500
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "service:", err)
		os.Exit(1)
	}
}

func run() error {
	// A local queued instance: fabric + TCP server on an ephemeral port.
	q, err := repro.NewShardedQueue[[]byte](shards)
	if err != nil {
		return err
	}
	srv, err := repro.Serve("127.0.0.1:0", q)
	if err != nil {
		return err
	}
	defer srv.Close()
	addr := srv.Addr().String()
	fmt.Printf("service: queue server on %s (%d shards)\n", addr, shards)

	// Producers: each dials its own connection — its own handle lease and
	// home shard — and pushes numbered jobs. The produced tally (not the
	// nominal target) is what the drain below waits for, so a failed
	// producer degrades the demo instead of hanging it.
	var (
		prodWG   sync.WaitGroup
		produced atomic.Int64
	)
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			c, err := repro.Dial(addr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "producer dial:", err)
				return
			}
			defer c.Close()
			job := make([]byte, 8)
			for i := 0; i < perProd; i++ {
				binary.BigEndian.PutUint64(job, uint64(p)<<32|uint64(i))
				if err := c.Enqueue(job); err != nil {
					fmt.Fprintln(os.Stderr, "producer enqueue:", err)
					return
				}
				produced.Add(1)
			}
		}(p)
	}

	// Consumers: dial, drain, and verify per-producer FIFO order — the
	// service preserves it because a producer's connection routes every
	// enqueue to its home shard.
	var (
		consWG   sync.WaitGroup
		mu       sync.Mutex
		consumed int
		lastSeq  = map[int]map[uint64]uint64{}
	)
	done := make(chan struct{})
	for cID := 0; cID < consumers; cID++ {
		lastSeq[cID] = map[uint64]uint64{}
		consWG.Add(1)
		go func(cID int) {
			defer consWG.Done()
			c, err := repro.Dial(addr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "consumer dial:", err)
				return
			}
			defer c.Close()
			for {
				v, ok, err := c.Dequeue()
				if err != nil {
					fmt.Fprintln(os.Stderr, "consumer dequeue:", err)
					return
				}
				if !ok {
					select {
					case <-done:
						return
					default:
						time.Sleep(200 * time.Microsecond)
						continue
					}
				}
				job := binary.BigEndian.Uint64(v)
				prod, seq := job>>32, job&0xFFFFFFFF
				mu.Lock()
				if last, seen := lastSeq[cID][prod]; seen && seq < last {
					fmt.Fprintf(os.Stderr, "service: producer %d out of order at consumer %d (%d after %d)\n",
						prod, cID, seq, last)
				}
				lastSeq[cID][prod] = seq
				consumed++
				mu.Unlock()
			}
		}(cID)
	}

	prodWG.Wait()
	// Producers are done; let consumers drain everything that actually got
	// enqueued, then stop them.
	for {
		mu.Lock()
		n := consumed
		mu.Unlock()
		if int64(n) >= produced.Load() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	consWG.Wait()

	// Client Closes have returned, but the server tears sessions down
	// asynchronously as the closes propagate; wait for the leases to come
	// home.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Snapshot().Server.SessionsOpen > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	snap := srv.Snapshot()
	fmt.Printf("service: %d jobs from %d producers consumed by %d consumers, per-producer FIFO held\n",
		consumed, producers, consumers)
	if int64(consumed) != produced.Load() || produced.Load() != producers*perProd {
		return fmt.Errorf("produced %d (want %d) but consumed %d", produced.Load(), producers*perProd, consumed)
	}
	fmt.Printf("service: %d sessions leased handles (%d still open), %d requests in %d batches (%.1f ops/batch)\n",
		snap.Server.SessionsTotal, snap.Server.SessionsOpen,
		snap.Server.Requests, snap.Server.Batches, snap.Server.OpsPerBatch)
	for _, st := range snap.Fabric.ShardStats {
		fmt.Printf("  shard %d: %4d enq  %4d deq\n", st.Shard, st.Enqueues, st.Dequeues)
	}
	return nil
}
