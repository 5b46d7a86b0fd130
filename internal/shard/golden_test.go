package shard

// Golden op-script test. A handle driven by one goroutine is deterministic:
// homes come from a counter, the registry free list is LIFO, and the only
// thing that draws from the handle's rng is pickShard. So a seeded script of
// fabric calls has one possible transcript — every returned value, ok flag
// and count, and the per-shard counts read from the roots — and its digest
// pins the routing rules (the sticky shard first while its budget lasts and
// its root reads nonempty, starting at home; two guided attempts that each
// sample two shards uniformly; certification sweep from home; the shard
// that serves a call becomes sticky) independently of how Enqueue/Dequeue
// reach the sub-queues. The k=4 digests were re-recorded when the guided
// picks became uniform samples of the roots, and again when the sticky
// shard replaced the home-first visit; the k=1 ones, where every visit is
// shard 0, did not move.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

var goldenScriptDigests = map[string]string{
	"k1/core":    "13f831112e7aab1bdec3584310d28ddc5bef95eec725b19d0624a8e73a2382bd",
	"k1/bounded": "13f831112e7aab1bdec3584310d28ddc5bef95eec725b19d0624a8e73a2382bd",
	"k4/core":    "6a7dda2bd5420425719bb44ecdbafc8f9e15669a8eac696105c6c53535582432",
	"k4/bounded": "6a7dda2bd5420425719bb44ecdbafc8f9e15669a8eac696105c6c53535582432",
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
// digest of its transcript. About one step in a hundred recycles a lease,
// so homes rotate over the shards.
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
		// empty several times.
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
