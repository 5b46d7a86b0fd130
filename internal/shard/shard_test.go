package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

func TestNewValidation(t *testing.T) {
	if _, err := New[int](0); !errors.Is(err, ErrBadShards) {
		t.Errorf("New(0) error = %v, want ErrBadShards", err)
	}
	if _, err := New[int](2, WithMaxHandles(-1)); !errors.Is(err, ErrBadHandles) {
		t.Errorf("WithMaxHandles(-1) error = %v, want ErrBadHandles", err)
	}
	if _, err := New[int](2, WithBackend("nope")); !errors.Is(err, ErrBadBackend) {
		t.Errorf("WithBackend(nope) error = %v, want ErrBadBackend", err)
	}
}

func backends(t *testing.T, fn func(t *testing.T, b Backend)) {
	for _, b := range []Backend{BackendCore, BackendBounded} {
		t.Run(string(b), func(t *testing.T) { fn(t, b) })
	}
}

// A single-shard fabric is a plain FIFO queue: cross-shard relaxation
// vanishes at k=1, so strict order must hold.
func TestSingleShardFIFO(t *testing.T) {
	backends(t, func(t *testing.T, b Backend) {
		q, err := New[int](1, WithBackend(b), WithMaxHandles(4))
		if err != nil {
			t.Fatal(err)
		}
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		const n = 1000
		for i := 0; i < n; i++ {
			if err := h.Enqueue(i); err != nil {
				t.Fatal(err)
			}
		}
		if got := q.Len(); got != n {
			t.Errorf("Len = %d, want %d", got, n)
		}
		for i := 0; i < n; i++ {
			v, ok := h.Dequeue()
			if !ok || v != i {
				t.Fatalf("Dequeue #%d = (%d, %v), want (%d, true)", i, v, ok, i)
			}
		}
		if v, ok := h.Dequeue(); ok {
			t.Errorf("Dequeue on empty fabric = (%d, true)", v)
		}
	})
}

// Per-shard FIFO: with one producer per shard, each producer's elements must
// come out in order even though dequeues interleave shards arbitrarily.
func TestPerShardFIFO(t *testing.T) {
	const k = 4
	const perProducer = 500
	q, err := New[[2]int](k, WithMaxHandles(k))
	if err != nil {
		t.Fatal(err)
	}
	producers := make([]*Handle[[2]int], k)
	for i := range producers {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		producers[i] = h
	}
	for s := 0; s < perProducer; s++ {
		for i, h := range producers {
			if err := h.Enqueue([2]int{i, s}); err != nil {
				t.Fatal(err)
			}
		}
	}
	lastSeq := map[int]int{}
	got := producers[0].Drain(func(v [2]int) {
		producer, seq := v[0], v[1]
		if last, seen := lastSeq[producer]; seen && seq <= last {
			t.Fatalf("producer %d: seq %d dequeued after %d", producer, seq, last)
		}
		lastSeq[producer] = seq
	})
	if got != k*perProducer {
		t.Errorf("drained %d elements, want %d", got, k*perProducer)
	}
	for _, h := range producers {
		h.Release()
	}
}

func TestCloseAndDrain(t *testing.T) {
	q, err := New[int](4, WithMaxHandles(2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for i := 0; i < 100; i++ {
		if err := h.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	if q.Closed() {
		t.Error("Closed() = true before Close")
	}
	q.Close()
	q.Close() // idempotent
	if !q.Closed() {
		t.Error("Closed() = false after Close")
	}
	if err := h.Enqueue(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Enqueue after Close = %v, want ErrClosed", err)
	}
	sum := 0
	if n := h.Drain(func(v int) { sum += v }); n != 100 {
		t.Errorf("Drain = %d elements, want 100", n)
	}
	if want := 99 * 100 / 2; sum != want {
		t.Errorf("drained sum = %d, want %d", sum, want)
	}
	if got := q.Len(); got != 0 {
		t.Errorf("Len after drain = %d, want 0", got)
	}
}

func TestRegistryExhaustionAndRecycle(t *testing.T) {
	q, err := New[int](2, WithMaxHandles(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := q.MaxHandles(); got != 3 {
		t.Fatalf("MaxHandles = %d, want 3", got)
	}
	handles := make([]*Handle[int], 3)
	seen := map[int]bool{}
	for i := range handles {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if seen[h.Slot()] {
			t.Fatalf("slot %d leased twice", h.Slot())
		}
		seen[h.Slot()] = true
		handles[i] = h
	}
	if _, err := q.Acquire(); !errors.Is(err, ErrNoFreeHandles) {
		t.Fatalf("Acquire on exhausted registry = %v, want ErrNoFreeHandles", err)
	}
	handles[1].Release()
	h, err := q.Acquire()
	if err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
	if h.Slot() != handles[1].Slot() {
		t.Errorf("recycled slot = %d, want %d", h.Slot(), handles[1].Slot())
	}
	h.Release()
	handles[0].Release()
	handles[2].Release()
	if got := q.reg.free(); got != 3 {
		t.Errorf("free slots = %d, want 3", got)
	}
}

func TestUseAfterReleasePanics(t *testing.T) {
	q, err := New[int](2, WithMaxHandles(2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	defer func() {
		if recover() == nil {
			t.Error("use after Release did not panic")
		}
	}()
	h.Enqueue(1)
}

func TestShardStatsAndRouting(t *testing.T) {
	const k = 4
	q, err := New[int](k, WithMaxHandles(k))
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle[int], k)
	homes := map[int]bool{}
	for i := range handles {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
		homes[h.Home()] = true
	}
	// Round-robin assignment: k sequential leases cover all k shards.
	if len(homes) != k {
		t.Errorf("%d leases cover %d homes, want %d", k, len(homes), k)
	}
	for i, h := range handles {
		for s := 0; s < (i+1)*10; s++ {
			if err := h.Enqueue(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The counts are read from the shards' roots, so they are live: the
	// leases need not be released first.
	for _, st := range q.ShardStats() {
		if st.Enqueues == 0 {
			t.Errorf("shard %d: Enqueues = 0 before any Release", st.Shard)
		}
	}
	for _, h := range handles {
		h.Release()
	}
	stats := q.ShardStats()
	if len(stats) != k {
		t.Fatalf("ShardStats len = %d, want %d", len(stats), k)
	}
	total := 0
	for _, st := range stats {
		if st.Len != int(st.Enqueues) {
			t.Errorf("shard %d: Len %d != Enqueues %d before any dequeue",
				st.Shard, st.Len, st.Enqueues)
		}
		total += st.Len
	}
	if want := 10 + 20 + 30 + 40; total != want {
		t.Errorf("total backlog = %d, want %d", total, want)
	}
}

// TestShardStatsLive: ShardStats reads each shard's root, so while every
// lease is still held it already counts what went into each shard and what
// came out of it, on both backends.
func TestShardStatsLive(t *testing.T) {
	backends(t, func(t *testing.T, b Backend) {
		const k = 4
		q, err := New[int](k, WithBackend(b), WithMaxHandles(k+1))
		if err != nil {
			t.Fatal(err)
		}
		wantEnq := make([]int64, k)
		homes := make([]int, k)
		for p := range homes {
			h, err := q.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer h.Release()
			homes[p] = h.Home()
			for s := 0; s < (p+1)*10; s++ {
				if err := h.Enqueue(p*1000 + s); err != nil {
					t.Fatal(err)
				}
			}
			wantEnq[h.Home()] += int64((p + 1) * 10)
		}
		cons, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		defer cons.Release()
		wantDeq := make([]int64, k)
		vs, got := cons.DequeueBatch(37)
		if got != 37 {
			t.Fatalf("DequeueBatch(37) took %d values", got)
		}
		for _, v := range vs {
			wantDeq[homes[v/1000]]++
		}
		for j, st := range q.ShardStats() {
			if st.Enqueues != wantEnq[j] || st.Dequeues != wantDeq[j] || st.Len != int(wantEnq[j]-wantDeq[j]) {
				t.Errorf("shard %d with every lease held: %+v, want %d enqueues, %d dequeues",
					j, st, wantEnq[j], wantDeq[j])
			}
		}
	})
}

func TestBoundedBackendWithGC(t *testing.T) {
	q, err := New[int](2, WithBackend(BackendBounded), WithGCInterval(16), WithMaxHandles(2))
	if err != nil {
		t.Fatal(err)
	}
	if q.Backend() != BackendBounded {
		t.Fatalf("Backend = %q, want bounded", q.Backend())
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for round := 0; round < 20; round++ {
		for i := 0; i < 64; i++ {
			if err := h.Enqueue(round*64 + i); err != nil {
				t.Fatal(err)
			}
		}
		if n := h.Drain(nil); n != 64 {
			t.Fatalf("round %d: drained %d, want 64", round, n)
		}
	}
}

// TestAllocsFabricSingleOp is the fabric's counterpart of core's
// TestAllocsEnqueueDequeue: Enqueue and Dequeue are batches of one handed
// to the sub-queues through an interface, so a per-call slice would escape
// and read >= 2 allocations per pair. The handle's one-slot scratch keeps
// the pair at the tree's own amortized slab allocations (~0.3), both on
// the trees a fabric starts with and on trees grown to the cap. It runs on
// core, whose pair allocates less than one object; bounded's pair
// allocates its two leaf blocks (bounded's TestAllocsBoundedPair).
func TestAllocsFabricSingleOp(t *testing.T) {
	for _, row := range []struct {
		name           string
		leases, leaves int
	}{{"start", 1, 4}, {"cap", 16, 16}} {
		t.Run(row.name, func(t *testing.T) {
			q, err := New[int](4, WithMaxHandles(16), WithBackend(BackendCore))
			if err != nil {
				t.Fatal(err)
			}
			hs := make([]*Handle[int], row.leases)
			for i := range hs {
				if hs[i], err = q.Acquire(); err != nil {
					t.Fatal(err)
				}
				defer hs[i].Release()
			}
			if got := q.ResizeStats().Leaves; got != row.leaves {
				t.Fatalf("%d leases: %d leaves, want %d", row.leases, got, row.leaves)
			}
			h := hs[0]
			pair := func() {
				if err := h.Enqueue(7); err != nil {
					t.Fatal(err)
				}
				if _, ok := h.Dequeue(); !ok {
					t.Fatal("dequeue failed")
				}
			}
			for i := 0; i < 300; i++ { // let the infarray directories and the first slab settle
				pair()
			}
			if avg := testing.AllocsPerRun(2000, pair); avg > 1.0 {
				t.Errorf("allocs per Enqueue+Dequeue pair = %.2f, want <= 1", avg)
			}
		})
	}
}

// blocksInstalled sums the blocks the fabric's shards hold: every block ever
// installed on core (its blocks are immortal), the live ones on bounded.
func blocksInstalled[T any](q *Queue[T]) int64 {
	var total int64
	for _, s := range q.shards {
		switch sq := s.(type) {
		case coreShard[T]:
			total += sq.q.BlocksInstalled()
		case boundedShard[T]:
			total += sq.q.TotalBlocks()
		}
	}
	return total
}

// TestAllocsFabricNullDequeue pins what an empty answer costs: batchFrom
// reads each shard's root and issues no sub-dequeue on a shard that reads
// empty, so polling an empty fabric allocates nothing, issues no CAS,
// installs no block (on core a block would be retained for ever) and is
// charged one null sub-operation per shard and two reads for each of the
// k+5 roots it reads.
func TestAllocsFabricNullDequeue(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) { nullDequeueCosts(t, k) })
	}
}

func nullDequeueCosts(t *testing.T, k int) {
	backends(t, func(t *testing.T, b Backend) {
		q, err := New[int](k, WithBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		var c metrics.Counter
		h.SetCounter(&c)
		// Leave history behind, so the roots read "empty again", not "new".
		for i := 0; i < 3*k; i++ {
			h.Enqueue(i)
		}
		if n := h.Drain(nil); n != 3*k {
			t.Fatalf("k=%d: drained %d, want %d", k, n, 3*k)
		}
		scratch := make([]int, 0, 16)
		polls := []struct {
			name string
			n    int64 // dequeues asked for per poll
			poll func() int
		}{
			{"Dequeue", 1, func() int {
				if _, ok := h.Dequeue(); ok {
					return 1
				}
				return 0
			}},
			{"DequeueBatch", 16, func() int { _, got := h.DequeueBatch(16); return got }},
			{"DequeueBatchAppend", 16, func() int { _, got := h.DequeueBatchAppend(scratch, 16); return got }},
		}
		for _, p := range polls {
			before, blocks := c, blocksInstalled(q)
			const runs = 10000
			for i := 0; i < runs; i++ {
				if got := p.poll(); got != 0 {
					t.Fatalf("k=%d %s on an empty fabric returned %d values", k, p.name, got)
				}
			}
			if d := blocksInstalled(q) - blocks; d != 0 {
				t.Errorf("k=%d %s: %d empty polls installed %d blocks, want 0", k, p.name, runs, d)
			}
			if d := c.CASAttempts - before.CASAttempts; d != 0 {
				t.Errorf("k=%d %s: %d CAS over %d empty polls, want 0", k, p.name, d, runs)
			}
			if d, want := c.Reads-before.Reads, runs*int64(2*(k+5)); d != want {
				t.Errorf("k=%d %s: %.1f reads per empty poll, want 2(k+5) = %d (the sticky root, two guided attempts of two roots, the sweep's k)",
					k, p.name, float64(d)/runs, 2*(k+5))
			}
			if d, want := c.NullDeqs-before.NullDeqs, runs*int64(k)*p.n; d != want {
				t.Errorf("k=%d %s: %d null dequeues charged over %d polls, want %d (one per shard per dequeue asked for)",
					k, p.name, d, runs, want)
			}
			if avg := testing.AllocsPerRun(1000, func() { p.poll() }); avg != 0 {
				t.Errorf("k=%d %s: %.2f allocs per empty poll, want 0", k, p.name, avg)
			}
		}
	})
}

// TestNullDequeueRacesEnqueue polls a fabric that keeps crossing empty while
// two producers fill it: every value must come out exactly once and in its
// producer's order, though a root read that found a shard empty may race
// the enqueue that fills it. The race is exercised by contract, not
// by scheduling: each producer parks at its midpoint until the consumer has
// polled the fabric empty, which it must do once every producer is parked.
func TestNullDequeueRacesEnqueue(t *testing.T) {
	backends(t, func(t *testing.T, b Backend) {
		const producers, perProducer = 2, 4000
		q, err := New[int](4, WithBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var producing atomic.Int32
		producing.Store(producers)
		sawNull := make(chan struct{})
		var once sync.Once
		markNull := func() { once.Do(func() { close(sawNull) }) }
		defer markNull() // a consumer that fails must not leave producers parked
		for p := 0; p < producers; p++ {
			h, err := q.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(p int, h *Handle[int]) {
				defer wg.Done()
				defer h.Release()
				for i := 0; i < perProducer; i++ {
					if i == perProducer/2 {
						<-sawNull
					}
					h.Enqueue(p*perProducer + i)
					if i%3 == 0 {
						runtime.Gosched()
					}
				}
				producing.Add(-1)
			}(p, h)
		}
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		next := make([]int, producers)
		take := func(v int) {
			p := v / perProducer
			if v%perProducer != next[p] {
				t.Fatalf("producer %d: got value %d, want %d", p, v%perProducer, next[p])
			}
			next[p]++
		}
		nulls := 0
		for producing.Load() > 0 {
			if v, ok := h.Dequeue(); ok {
				take(v)
			} else {
				markNull()
				if nulls++; nulls%8 == 0 {
					runtime.Gosched()
				}
			}
		}
		wg.Wait()
		h.Drain(take)
		for p, n := range next {
			if n != perProducer {
				t.Errorf("producer %d: %d of %d values delivered", p, n, perProducer)
			}
		}
	})
}

// TestDoubleReleaseNoop: a second Release is a defined no-op — teardown
// paths may release defensively — and must not corrupt the registry free
// list (the slot goes back exactly once).
func TestDoubleReleaseNoop(t *testing.T) {
	q, err := New[int](2, WithMaxHandles(2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h.Release() // must not panic
	h.Release() // and stays idempotent
	if got := q.reg.free(); got != 2 {
		t.Errorf("free slots after double release = %d, want 2 (slot pushed twice?)", got)
	}
	st := q.RegistryStats()
	if st.Releases != 1 {
		t.Errorf("Releases = %d, want 1 (double release must not count)", st.Releases)
	}
	// The slot must still round-trip cleanly through the registry.
	h2, err := q.Acquire()
	if err != nil {
		t.Fatalf("Acquire after double release: %v", err)
	}
	h2.Release()
}

func TestRegistryPacking(t *testing.T) {
	var r registry
	r.init(1)
	s, ok := r.acquire()
	if !ok || s != 0 {
		t.Fatalf("acquire = (%d, %v), want (0, true)", s, ok)
	}
	if _, ok := r.acquire(); ok {
		t.Fatal("second acquire on 1-slot registry succeeded")
	}
	r.release(0)
	if got := r.free(); got != 1 {
		t.Fatalf("free = %d, want 1", got)
	}
}

func TestRegistryStatsChurn(t *testing.T) {
	q, err := New[int](2, WithMaxHandles(3))
	if err != nil {
		t.Fatal(err)
	}
	st := q.RegistryStats()
	if st.Capacity != 3 || st.InUse != 0 || st.Acquires != 0 || st.Releases != 0 || st.Failures != 0 {
		t.Fatalf("fresh registry stats = %+v", st)
	}
	var hs []*Handle[int]
	for i := 0; i < 3; i++ {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if _, err := q.Acquire(); !errors.Is(err, ErrNoFreeHandles) {
		t.Fatalf("Acquire on full registry = %v", err)
	}
	st = q.RegistryStats()
	if st.InUse != 3 || st.Acquires != 3 || st.Releases != 0 || st.Failures != 1 {
		t.Fatalf("full registry stats = %+v", st)
	}
	for _, h := range hs {
		h.Release()
	}
	st = q.RegistryStats()
	if st.InUse != 0 || st.Acquires != 3 || st.Releases != 3 || st.Failures != 1 {
		t.Fatalf("drained registry stats = %+v", st)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	q, err := New[int](2, WithMaxHandles(4))
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := h.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, ok := h.Dequeue(); !ok {
			t.Fatal("dequeue failed")
		}
	}
	h.Release()

	want := q.Snapshot()
	if want.Shards != 2 || want.MaxHandles != 4 || want.Len != 6 {
		t.Fatalf("snapshot identity = %+v", want)
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for _, key := range []string{"backend", "shards", "max_handles", "closed", "len",
		"shard_stats", "registry", "capacity", "in_use", "acquires", "releases",
		"failures", "enqueues", "dequeues"} {
		if !strings.Contains(string(data), `"`+key+`"`) {
			t.Errorf("encoding missing key %q: %s", key, data)
		}
	}
	var got Snapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed snapshot:\n got %+v\nwant %+v", got, want)
	}
}

// TestResizeSnapshotJSONRoundTrip: the snapshot's resize section — leaves
// and tree growths — keeps its stable keys and round-trips through
// JSON, both as built and after a tree growth.
func TestResizeSnapshotJSONRoundTrip(t *testing.T) {
	q, err := New[int](2, WithMaxHandles(5))
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := h.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, ok := h.Dequeue(); !ok {
			t.Fatal("dequeue failed")
		}
	}
	h.Release()
	roundTrip := func(snap Snapshot, keys ...string) {
		t.Helper()
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if !strings.Contains(string(data), key) {
				t.Errorf("snapshot JSON missing %s: %s", key, data)
			}
		}
		var back Snapshot
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, back) {
			t.Errorf("snapshot did not round-trip:\n got %+v\nwant %+v", back, snap)
		}
	}
	snap := q.Snapshot()
	if snap.Resize.Leaves != 4 || snap.Resize.LeafGrowths != 0 {
		t.Fatalf("Snapshot.Resize = %+v, want 4 leaves / 0 leaf growths", snap.Resize)
	}
	roundTrip(snap, `"resize"`, `"leaves":4`, `"leaf_growths":0`)

	// The 5th concurrent lease doubles the trees, to the cap's 8 leaves.
	var hs []*Handle[int]
	for i := 0; i < 5; i++ {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		h.Release()
	}
	snap = q.Snapshot()
	if snap.Resize.Leaves != 8 || snap.Resize.LeafGrowths != 1 || snap.Len != 6 {
		t.Fatalf("Snapshot = %+v, want 8 leaves (the cap) / 1 leaf growth, 6 values", snap)
	}
	roundTrip(snap, `"leaves":8`, `"leaf_growths":1`)
	data, _ := json.Marshal(snap)
	for _, gone := range []string{"migrated", "epoch"} {
		if strings.Contains(string(data), gone) {
			t.Errorf("snapshot JSON still carries a %s key: %s", gone, data)
		}
	}
}

// TestDefaultBackendIsBounded pins the fabric's default backend: a fabric
// built without WithBackend, as the service's default queue and
// repro.NewShardedQueue are, frees the blocks of finished operations.
func TestDefaultBackendIsBounded(t *testing.T) {
	q, err := New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	if b := q.Backend(); b != BackendBounded {
		t.Fatalf("default backend = %q, want %q", b, BackendBounded)
	}
}
