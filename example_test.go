package repro_test

import (
	"fmt"
	"sync"

	"repro"
)

// ExampleNewQueue shows basic FIFO usage through a single handle.
func ExampleNewQueue() {
	q, err := repro.NewQueue[string](2)
	if err != nil {
		panic(err)
	}
	h := q.MustHandle(0)
	h.Enqueue("first")
	h.Enqueue("second")
	v1, _ := h.Dequeue()
	v2, _ := h.Dequeue()
	_, ok := h.Dequeue()
	fmt.Println(v1, v2, ok)
	// Output: first second false
}

// ExampleHandle_EnqueueBatch shows the batch API: a batch rides one leaf
// block and one tree propagation, so m operations pay one O(log p) walk.
// Batches interleave freely with single operations in FIFO order.
func ExampleHandle_EnqueueBatch() {
	q, err := repro.NewQueue[string](2)
	if err != nil {
		panic(err)
	}
	h := q.MustHandle(0)
	h.EnqueueBatch([]string{"a", "b", "c"})
	h.Enqueue("d")
	vs, n := h.DequeueBatch(2) // up to 2 elements, one propagation pass
	fmt.Println(vs, n)
	v, _ := h.Dequeue()
	vs, n = h.DequeueBatch(5) // short count: queue had one element left
	fmt.Println(v, vs, n)
	// Output:
	// [a b] 2
	// c [d] 1
}

// ExampleNewQueue_concurrent shows the intended concurrent pattern: one
// handle per goroutine.
func ExampleNewQueue_concurrent() {
	const workers = 4
	q, err := repro.NewQueue[int](workers)
	if err != nil {
		panic(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.MustHandle(w)
			h.Enqueue(w)
		}(w)
	}
	wg.Wait()
	sum := 0
	h := q.MustHandle(0)
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		sum += v
	}
	fmt.Println(sum)
	// Output: 6
}

// ExampleNewBoundedQueue shows the space-bounded variant; semantics are
// identical, memory stays proportional to the live queue.
func ExampleNewBoundedQueue() {
	q, err := repro.NewBoundedQueue[int](2)
	if err != nil {
		panic(err)
	}
	h := q.MustHandle(0)
	for i := 1; i <= 3; i++ {
		h.Enqueue(i)
	}
	v, _ := h.Dequeue()
	fmt.Println(v, q.Len())
	// Output: 1 2
}

// ExampleNewShardedQueue shows the sharded fabric: handles are leased
// dynamically instead of numbered statically, enqueues stay FIFO per home
// shard, and Close/Drain shut the fabric down without losing elements.
func ExampleNewShardedQueue() {
	q, err := repro.NewShardedQueue[string](4)
	if err != nil {
		panic(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h, err := q.Acquire() // lease a handle slot
			if err != nil {
				panic(err)
			}
			defer h.Release() // recycle it for other goroutines
			for i := 0; i < 5; i++ {
				if err := h.Enqueue(fmt.Sprintf("job-%d-%d", w, i)); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	q.Close()
	h, err := q.Acquire()
	if err != nil {
		panic(err)
	}
	defer h.Release()
	n := h.Drain(func(string) {})
	fmt.Println(n, q.Len(), h.Enqueue("late") == repro.ErrQueueClosed)
	// Output: 15 0 true
}

// ExampleQueueClient_Open shows multi-tenant named queues: one server,
// one connection, several independent FIFO queues. Each named queue is
// its own server-side sharded fabric, created on the first Open of its
// name, so values never cross queues and each queue keeps per-producer
// FIFO order. Unqualified client calls (c.Enqueue, c.Dequeue) keep
// addressing the default queue 0.
func ExampleQueueClient_Open() {
	fabric, err := repro.NewShardedQueue[[]byte](2)
	if err != nil {
		panic(err)
	}
	srv, err := repro.Serve("127.0.0.1:0", fabric)
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	c, err := repro.Dial(srv.Addr().String())
	if err != nil {
		panic(err)
	}
	defer c.Close()

	jobs, err := c.Open("jobs") // created on first use
	if err != nil {
		panic(err)
	}
	logs, err := c.Open("logs")
	if err != nil {
		panic(err)
	}
	// Interleave traffic across tenants on the one connection.
	jobs.Enqueue([]byte("build"))
	logs.Enqueue([]byte("starting up"))
	jobs.Enqueue([]byte("test"))
	c.Enqueue([]byte("untagged")) // default queue 0

	for _, q := range []*repro.NamedRemoteQueue{jobs, logs} {
		for {
			v, ok, err := q.Dequeue()
			if err != nil {
				panic(err)
			}
			if !ok {
				break
			}
			fmt.Printf("%s: %s\n", q.Name(), v)
		}
	}
	v, _, _ := c.Dequeue()
	fmt.Printf("default: %s\n", v)
	// Output:
	// jobs: build
	// jobs: test
	// logs: starting up
	// default: untagged
}

// ExampleNewVector shows the Section 7 append-only sequence.
func ExampleNewVector() {
	v, err := repro.NewVector[string](2)
	if err != nil {
		panic(err)
	}
	h := v.MustHandle(0)
	h.Append("alpha")
	ref := h.Append("beta")
	pos, _ := h.Index(ref)
	val, _ := h.Get(pos)
	fmt.Println(pos, val)
	// Output: 1 beta
}

// ExampleServe serves a sharded fabric over TCP and talks to it through a
// dialed client: the client's connection leases one fabric handle, so its
// enqueues keep FIFO order among themselves.
func ExampleServe() {
	q, err := repro.NewShardedQueue[[]byte](2)
	if err != nil {
		panic(err)
	}
	srv, err := repro.Serve("127.0.0.1:0", q) // ephemeral loopback port
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	c, err := repro.Dial(srv.Addr().String())
	if err != nil {
		panic(err)
	}
	defer c.Close()

	for _, job := range []string{"first", "second", "third"} {
		if err := c.Enqueue([]byte(job)); err != nil {
			panic(err)
		}
	}
	for {
		v, ok, err := c.Dequeue()
		if err != nil {
			panic(err)
		}
		if !ok {
			break
		}
		fmt.Println(string(v))
	}
	// Output:
	// first
	// second
	// third
}
