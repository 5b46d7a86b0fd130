package shard

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

func TestResizeValidation(t *testing.T) {
	q, err := New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Resize(0); !errors.Is(err, ErrBadShards) {
		t.Errorf("Resize(0) = %v, want ErrBadShards", err)
	}
	if err := q.Resize(2); err != nil {
		t.Errorf("same-size Resize = %v, want nil", err)
	}
	if got := q.Epoch(); got != 1 {
		t.Errorf("epoch after no-op Resize = %d, want 1", got)
	}
	q.Close()
	if err := q.Resize(4); !errors.Is(err, ErrClosed) {
		t.Errorf("Resize on closed fabric = %v, want ErrClosed", err)
	}
}

// TestResizeGrowShrinkConservation: a quiescent grow then shrink moves
// every element exactly once and bumps the epoch/resize counters.
func TestResizeGrowShrinkConservation(t *testing.T) {
	q, err := New[int](4, WithMaxHandles(8))
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle[int], 4)
	for i := range handles {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	const per = 200
	for i, h := range handles {
		for s := 0; s < per; s++ {
			if err := h.Enqueue(i*1_000_000 + s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := q.Resize(8); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if got := q.Shards(); got != 8 {
		t.Fatalf("Shards after grow = %d, want 8", got)
	}
	if err := q.Resize(2); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if got := q.Shards(); got != 2 {
		t.Fatalf("Shards after shrink = %d, want 2", got)
	}
	// The 4th lease grew the trees from 4 to 8 leaves: one epoch more.
	rs := q.ResizeStats()
	if rs.Epoch != 4 || rs.Grows != 1 || rs.Shrinks != 1 || rs.LeafGrowths != 1 || rs.Leaves != 8 {
		t.Errorf("ResizeStats = %+v, want epoch 4, 1 grow, 1 shrink, 1 growth to 8 leaves", rs)
	}
	if rs.Migrated == 0 {
		t.Errorf("shrink from 4 occupied shards migrated 0 elements")
	}
	if got := q.Len(); got != 4*per {
		t.Fatalf("Len after resizes = %d, want %d", got, 4*per)
	}
	// Per-producer FIFO must have survived both epochs.
	lastSeq := map[int]int{}
	seen := map[int]bool{}
	n := handles[0].Drain(func(v int) {
		prod, seq := v/1_000_000, v%1_000_000
		if prev, ok := lastSeq[prod]; ok && seq < prev {
			t.Errorf("producer %d out of order: %d after %d", prod, seq, prev)
		}
		lastSeq[prod] = seq
		if seen[v] {
			t.Errorf("value %d dequeued twice", v)
		}
		seen[v] = true
	})
	if n != 4*per {
		t.Fatalf("drained %d values, want %d", n, 4*per)
	}
	for _, h := range handles {
		h.Release()
	}
	// Shard audit must stay exact across migration: enqueues - dequeues ==
	// len (== 0 after the full drain) on every surviving shard.
	for _, st := range q.ShardStats() {
		if st.Enqueues-st.Dequeues != int64(st.Len) {
			t.Errorf("shard %d audit broken: enq %d - deq %d != len %d",
				st.Shard, st.Enqueues, st.Dequeues, st.Len)
		}
	}
}

// TestResizeRehomeFIFO drives one producer whose home shard is repeatedly
// retired and re-created while a consumer checks that the producer's
// elements arrive in order: the migration drain plus the re-homed
// producer's enqueue barrier must keep per-producer FIFO across every
// epoch boundary.
func TestResizeRehomeFIFO(t *testing.T) {
	q, err := New[int](2, WithMaxHandles(4))
	if err != nil {
		t.Fatal(err)
	}
	// Second lease homes at shard 1 (round-robin), the shard every shrink
	// to k=1 retires.
	h0, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	prod, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if prod.Home() != 1 {
		t.Fatalf("second lease homed at %d, want 1", prod.Home())
	}
	h0.Release()

	const total = 4000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // resizer: 2 -> 1 -> 2 -> ... while the stream flows
		defer wg.Done()
		k := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := q.Resize(k); err != nil {
				t.Errorf("Resize(%d): %v", k, err)
				return
			}
			k = 3 - k // alternate 1, 2
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; s < total; s++ {
			if err := prod.Enqueue(s); err != nil {
				t.Errorf("Enqueue(%d): %v", s, err)
				return
			}
		}
	}()

	cons, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for next < total {
		v, ok := cons.Dequeue()
		if !ok {
			continue // empty or mid-migration; elements are still owed
		}
		if v != next {
			t.Fatalf("dequeued %d, want %d (per-producer FIFO broken across resize)", v, next)
		}
		next++
	}
	close(stop)
	wg.Wait()
	prod.Release()
	cons.Release()
}

// TestResizeChurnConservation runs producers and consumers through
// concurrent resizes and asserts exact conservation: every enqueued value
// is dequeued exactly once, nothing is lost in a migration and nothing is
// duplicated, and once the leases are released the folded per-shard
// tallies balance. Run with -race.
func TestResizeChurnConservation(t *testing.T) {
	for _, row := range []struct {
		name                          string
		k0                            int
		producers, consumers, perProd int
		// batches mixes EnqueueBatch(3) into the producers and has the
		// consumers pull DequeueBatch(4); otherwise every op is a single.
		batches bool
		// schedule is cycled; resizes == 0 means keep resizing until the
		// consumers have drained everything, so the number of epoch swaps
		// under the workload adapts to machine speed.
		schedule []int
		resizes  int
	}{
		{name: "batches-random-k", k0: 3, producers: 4, consumers: 4, perProd: 5000, batches: true, schedule: randomShardCounts(7, 100, 8), resizes: 100},
		{name: "singles-grow-shrink-cycle", k0: 2, producers: 2, consumers: 2, perProd: 4000, schedule: []int{4, 1, 2}},
	} {
		t.Run(row.name, func(t *testing.T) {
			total := int64(row.producers * row.perProd)
			q, err := New[int](row.k0, WithMaxHandles(row.producers+row.consumers+1))
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg       sync.WaitGroup
				consumed sync.Map
				got      atomic.Int64
				dups     atomic.Int64
			)
			for p := 0; p < row.producers; p++ {
				h, err := q.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(p int, h *Handle[int]) {
					defer wg.Done()
					defer h.Release()
					for s := 0; s < row.perProd; s++ {
						if row.batches && s%7 == 3 {
							end := min(s+3, row.perProd)
							vs := make([]int, 0, end-s)
							for ; s < end; s++ {
								vs = append(vs, p*1_000_000+s)
							}
							s--
							if err := h.EnqueueBatch(vs); err != nil {
								t.Errorf("EnqueueBatch: %v", err)
								return
							}
							continue
						}
						if err := h.Enqueue(p*1_000_000 + s); err != nil {
							t.Errorf("Enqueue: %v", err)
							return
						}
					}
				}(p, h)
			}
			record := func(v int) {
				if _, dup := consumed.LoadOrStore(v, true); dup {
					dups.Add(1)
				}
				got.Add(1)
			}
			done := make(chan struct{})
			for c := 0; c < row.consumers; c++ {
				h, err := q.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(h *Handle[int]) {
					defer wg.Done()
					defer h.Release()
					for {
						n := 0
						if row.batches {
							var vs []int
							vs, n = h.DequeueBatch(4)
							for _, v := range vs {
								record(v)
							}
						} else if v, ok := h.Dequeue(); ok {
							record(v)
							n = 1
						}
						if n == 0 {
							select {
							case <-done:
								return
							default:
							}
						}
					}
				}(h)
			}

			deadline := time.Now().Add(30 * time.Second)
			settled := func() bool {
				return got.Load() >= total || dups.Load() != 0 || time.Now().After(deadline)
			}
			for i := 0; i < row.resizes || (row.resizes == 0 && !settled()); i++ {
				if err := q.Resize(row.schedule[i%len(row.schedule)]); err != nil {
					t.Fatalf("resize %d: %v", i, err)
				}
			}
			// Let consumers finish accounting for everything the producers put in.
			for !settled() {
				time.Sleep(time.Millisecond)
			}
			close(done)
			wg.Wait()
			if d := dups.Load(); d != 0 {
				t.Fatalf("%d values dequeued more than once", d)
			}
			if g := got.Load(); g != total {
				t.Fatalf("consumed %d values, want %d (lost %d)", g, total, total-g)
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after full consumption", q.Len())
			}
			// The folded tallies count migrations too (a value drained out
			// of a retiring shard tallies a dequeue there and an enqueue on
			// its destination), so both sides read total+migrations — but
			// they must read the SAME number.
			var enqs, deqs int64
			for _, s := range q.ShardStats() {
				enqs += s.Enqueues
				deqs += s.Dequeues
			}
			if enqs != deqs || enqs < total {
				t.Fatalf("tally imbalance: enqueues %d, dequeues %d, workload %d", enqs, deqs, total)
			}
			if rs := q.ResizeStats(); row.resizes > 0 && rs.Epoch < uint64(row.resizes/2) { // some schedule entries repeat the current k
				t.Errorf("epoch %d suspiciously low after %d resize calls", rs.Epoch, row.resizes)
			}
		})
	}
}

// randomShardCounts returns n seeded shard counts in [1, maxK].
func randomShardCounts(seed int64, n, maxK int) []int {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]int, n)
	for i := range ks {
		ks[i] = 1 + rng.Intn(maxK)
	}
	return ks
}

// TestResizeSetCounterNilSurvivesRefresh: a lease's explicit
// SetCounter(nil) on a WithShardMetrics fabric must keep accounting
// disabled across an epoch refresh, not be silently replaced by fresh
// per-shard counters.
func TestResizeSetCounterNilSurvivesRefresh(t *testing.T) {
	q, err := New[int](1, WithMaxHandles(2), WithShardMetrics())
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	h.SetCounter(nil) // explicitly disable accounting for this lease
	if err := q.Resize(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		h.Enqueue(i)
	}
	h.Drain(nil)
	h.Release()
	for j, s := range q.ShardSummaries() {
		if s.Ops != 0 {
			t.Errorf("shard %d: %d ops tallied after SetCounter(nil), want 0", j, s.Ops)
		}
	}
}

// TestResizeShardSummariesSurviveShrink: cost-model work and traffic
// tallies recorded against shards a shrink retires must be inherited by
// the migration destination, not silently dropped with the retired
// states — fabric-wide totals are the whole point of WithShardMetrics.
func TestResizeShardSummariesSurviveShrink(t *testing.T) {
	q, err := New[int](4, WithMaxHandles(4), WithShardMetrics())
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle[int], 4) // homes 0..3 round-robin
	for i := range handles {
		h, err := q.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	const per = 100
	for _, h := range handles {
		for s := 0; s < per; s++ {
			h.Enqueue(s)
		}
	}
	for _, h := range handles {
		h.Release() // folds tallies + counters into the k=4 states
	}
	var opsBefore int64
	for _, s := range q.ShardSummaries() {
		opsBefore += s.Ops
	}
	if opsBefore != 4*per {
		t.Fatalf("ops before shrink = %d, want %d", opsBefore, 4*per)
	}
	if err := q.Resize(1); err != nil {
		t.Fatal(err)
	}
	var opsAfter, enqAfter int64
	for _, s := range q.ShardSummaries() {
		opsAfter += s.Ops
	}
	for _, st := range q.ShardStats() {
		enqAfter += st.Enqueues
	}
	if opsAfter != opsBefore {
		t.Errorf("ops after shrink = %d, want %d (retired shards' summaries dropped)", opsAfter, opsBefore)
	}
	// Original enqueues plus one migration enqueue per element moved into
	// shard 0 from the three retired shards.
	wantEnq := int64(4*per) + q.ResizeStats().Migrated
	if enqAfter != wantEnq {
		t.Errorf("enqueue tallies after shrink = %d, want %d", enqAfter, wantEnq)
	}
}

// TestResizeSnapshotJSONRoundTrip pins the fabric Snapshot's new
// epoch/resize fields to their stable JSON encoding, tree growth included.
func TestResizeSnapshotJSONRoundTrip(t *testing.T) {
	q, err := New[int](2, WithMaxHandles(4))
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.Enqueue(i)
	}
	if err := q.Resize(4); err != nil {
		t.Fatal(err)
	}
	if err := q.Resize(1); err != nil {
		t.Fatal(err)
	}
	h.Release()
	snap := q.Snapshot()
	if snap.Resize.Epoch != 3 || snap.Resize.Grows != 1 || snap.Resize.Shrinks != 1 {
		t.Fatalf("Snapshot.Resize = %+v, want epoch 3 / 1 grow / 1 shrink", snap.Resize)
	}
	if snap.Shards != 1 {
		t.Fatalf("Snapshot.Shards = %d, want 1", snap.Shards)
	}
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
	roundTrip(snap, `"epoch":3`, `"grows":1`, `"shrinks":1`, `"migrated":`, `"leaves":4`, `"leaf_growths":0`)

	// The 4th concurrent lease grows the trees: one more epoch.
	var hs []*Handle[int]
	for i := 0; i < 4; i++ {
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
	if snap.Resize.Epoch != 4 || snap.Resize.Leaves != 5 || snap.Resize.LeafGrowths != 1 {
		t.Fatalf("Snapshot.Resize = %+v, want epoch 4 / 5 leaves (the cap) / 1 leaf growth", snap.Resize)
	}
	roundTrip(snap, `"epoch":4`, `"leaves":5`, `"leaf_growths":1`)
}
