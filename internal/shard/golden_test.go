package shard

// Golden op-script test. A handle driven by one goroutine is deterministic:
// homes come from a counter, the registry free list is LIFO, and the only
// thing that draws from the handle's rng is pickShard. So a seeded script of
// fabric calls has one possible transcript — every returned value, ok flag
// and count, and the per-shard tallies the leases fold in — and its digest
// pins the routing rules (home first, two guided attempts, certification
// sweep from home; clear-then-recheck on a short pull; re-homing and
// migration order across Resize) independently of how Enqueue/Dequeue reach
// the sub-queues. The digests below were recorded at the commit before
// single operations became batches of one, with elimination (still present
// there, and the only other consumer of the rng) switched off.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

var goldenScriptDigests = map[string]string{
	"k1/core":    "4e73aaff34f49c1669e2319dcbab2bc4cdd25f54fd1588b057db156beffe031f",
	"k1/bounded": "4e73aaff34f49c1669e2319dcbab2bc4cdd25f54fd1588b057db156beffe031f",
	"k4/core":    "c45e798b6a88b700e7e98b50ba1f2cad15f15b8d0a17bad3d52532ca2bf2d5e7",
	"k4/bounded": "c45e798b6a88b700e7e98b50ba1f2cad15f15b8d0a17bad3d52532ca2bf2d5e7",
}

func TestGoldenOpScript(t *testing.T) {
	for _, k := range []int{1, 4} {
		for _, b := range []Backend{BackendCore, BackendBounded} {
			name := fmt.Sprintf("k%d/%s", k, b)
			t.Run(name, func(t *testing.T) {
				if got, want := goldenScript(t, k, b), goldenScriptDigests[name]; got != want {
					t.Errorf("digest %s, want %s", got, want)
				}
			})
		}
	}
}

// goldenScript runs the seeded script on a k-shard fabric and returns the
// digest of its transcript. The shard count goes k -> 2 -> k on the way
// (4 -> 2 -> 4, or 1 -> 2 -> 1), and about one step in a hundred recycles a
// lease, so handles come to be homed on shards a resize then retires.
func goldenScript(t *testing.T, k int, b Backend) string {
	const steps = 1300
	q, err := New[uint64](k, WithBackend(b), WithMaxHandles(4))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	acquire := func() *Handle[uint64] {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(sum, "acquire slot=%d home=%d\n", h.Slot(), h.Home())
		return h
	}
	resize := func(k int) {
		if err := q.Resize(k); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(sum, "resize k=%d len=%d migrated=%d\n", k, q.Len(), q.ResizeStats().Migrated)
	}
	stats := func() {
		for _, s := range q.ShardStats() {
			fmt.Fprintf(sum, "shard %d enq=%d deq=%d len=%d\n", s.Shard, s.Enqueues, s.Dequeues, s.Len)
		}
	}
	var next uint64
	fresh := func(m int) []uint64 {
		vs := make([]uint64, m)
		for i := range vs {
			next++
			vs[i] = next
		}
		return vs
	}
	dequeue := func(h *Handle[uint64]) {
		v, ok := h.Dequeue()
		fmt.Fprintf(sum, "deq %d %v\n", v, ok)
	}
	dequeueBatch := func(h *Handle[uint64], n int) {
		vs, got := h.DequeueBatch(n)
		fmt.Fprintf(sum, "deqb %d %v %d\n", n, vs, got)
	}
	scratch := make([]uint64, 0, 17)
	dequeueAppend := func(h *Handle[uint64], n int) {
		vs, got := h.DequeueBatchAppend(append(scratch[:0], ^uint64(0)), n)
		fmt.Fprintf(sum, "deqa %d %v %d\n", n, vs, got)
	}

	hs := []*Handle[uint64]{acquire(), acquire(), acquire()}
	// Every dequeue flavour on a fabric that has never held anything.
	dequeue(hs[0])
	dequeueBatch(hs[1], 3)
	dequeueAppend(hs[2], 16)

	rng := rand.New(rand.NewSource(123))
	for s := 0; s < steps; s++ {
		// Alternate filling and draining stretches, so the script crosses
		// empty several times; both resizes land mid-fill, with residue to
		// migrate.
		switch s {
		case 470:
			resize(2)
		case 880:
			resize(k)
		}
		enqPct := 80
		if (s/100)%2 == 1 {
			enqPct = 25
		}
		i := rng.Intn(len(hs))
		if rng.Intn(100) == 0 { // recycle a lease: homes rotate over the shards
			hs[i].Release()
			hs[i] = acquire()
		}
		h := hs[i]
		if rng.Intn(100) < enqPct {
			if rng.Intn(4) == 0 {
				vs := fresh([]int{1, 2, 7}[rng.Intn(3)])
				fmt.Fprintf(sum, "enqb %v %v\n", vs, h.EnqueueBatch(vs))
			} else {
				v := fresh(1)[0]
				fmt.Fprintf(sum, "enq %d %v\n", v, h.Enqueue(v))
			}
			continue
		}
		n := []int{1, 3, 16}[rng.Intn(3)]
		switch rng.Intn(4) {
		case 0:
			dequeueBatch(h, n)
		case 1:
			dequeueAppend(h, n)
		default:
			dequeue(h)
		}
	}

	for _, h := range hs {
		h.Release()
	}
	stats()
	h := acquire()
	fmt.Fprintf(sum, "drained %d\n", h.Drain(func(v uint64) { fmt.Fprintf(sum, "drain %d\n", v) }))
	dequeue(h)
	h.Release()
	stats()
	return hex.EncodeToString(sum.Sum(nil))
}
