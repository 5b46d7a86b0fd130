package pbst

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

// entry is the test value: it remembers the key it was appended at, so that
// reachable can tell a live value from a dropped one.
type entry struct {
	key int64
	v   int
}

// app returns s extended by a fresh entry carrying v at key.
func app(s *Seq[entry], key int64, v int) *Seq[entry] {
	return s.Append(key, &entry{key, v})
}

// model is the oracle: the values at keys lo, lo+1, ... in a plain slice.
type model struct {
	lo   int64
	vals []int
}

func (m model) appendVal(v int) model {
	return model{m.lo, append(m.vals[:len(m.vals):len(m.vals)], v)}
}

func (m model) dropBelow(bound int64) model {
	if bound <= m.lo {
		return m
	}
	if n := bound - m.lo; n < int64(len(m.vals)) {
		return model{bound, m.vals[n:]}
	}
	return model{}
}

// build returns the sequence and model holding the n keys from..from+n-1,
// key k bound to val(k).
func build(from, n int64, val func(k int64) int) (*Seq[entry], model) {
	var s *Seq[entry]
	m := model{lo: from}
	for k := from; k < from+n; k++ {
		s = app(s, k, val(k))
		m.vals = append(m.vals, val(k))
	}
	return s, m
}

// reachableBelow counts the values with a key below s's smallest that are
// reachable from s through its chunks, its tail, first and last: what a
// dropped prefix would keep alive for the garbage collector. It is 0 for
// every version.
func reachableBelow(s *Seq[entry]) int {
	if s == nil {
		return 0
	}
	seen := map[*entry]bool{s.first: true, s.last: true}
	count := func(c *chunk[entry]) {
		for i := range c {
			if v := c[i].Load(); v != nil {
				seen[v] = true
			}
		}
	}
	// The level says what a branch's children are, as in Seq's own walks.
	var walk func(b *branch[entry], shift uint)
	walk = func(b *branch[entry], shift uint) {
		for i := range int64(chunkLen) {
			switch {
			case b.kids[i] == nil:
			case shift == chunkBits:
				count(b.leaf(i))
			default:
				walk(b.sub(i), shift-chunkBits)
			}
		}
	}
	if s.root != nil {
		walk(s.root, s.shift)
	}
	count(s.tail)
	n := 0
	for v := range seen {
		if v.key < s.lo {
			n++
		}
	}
	return n
}

// depth is the number of nodes a lookup of s's smallest key visits: the
// branches above it plus its chunk. It walks the path level by level, as at
// does, and fails the lookup if the chunk it ends at is missing.
func depth(s *Seq[entry]) int {
	if s.root == nil {
		return 1
	}
	d, b := 1, s.root
	for shift := s.shift; shift > chunkBits; shift -= chunkBits {
		b, d = b.sub((s.lo>>shift)&chunkMask), d+1
	}
	if b.leaf((s.lo>>chunkBits)&chunkMask) == nil {
		panic("pbst: the trie path to the smallest key ends without its chunk")
	}
	return d + 1
}

// logw returns ceil(log_chunkLen(n)) for n >= 1.
func logw(n int64) int {
	d := 0
	for p := int64(1); p < n; p *= chunkLen {
		d++
	}
	return d
}

// check compares every observable of s with the model.
func check(t *testing.T, s *Seq[entry], m model) {
	t.Helper()
	n := int64(len(m.vals))
	if s.Size() != n {
		t.Fatalf("Size = %d, model %d", s.Size(), n)
	}
	is := func(e *entry, k int64, v int) bool { return e != nil && e.key == k && e.v == v }
	k, e, ok := s.Min()
	if ok != (n > 0) || ok && (k != m.lo || !is(e, k, m.vals[0])) {
		t.Fatalf("Min = (%d, %v, %v), model lo %d size %d", k, e, ok, m.lo, n)
	}
	k, e, ok = s.Max()
	if ok != (n > 0) || ok && (k != m.lo+n-1 || !is(e, k, m.vals[n-1])) {
		t.Fatalf("Max = (%d, %v, %v), model hi %d size %d", k, e, ok, m.lo+n-1, n)
	}
	for i, want := range m.vals {
		key := m.lo + int64(i)
		if got, ok := s.Get(key); !ok || !is(got, key, want) {
			t.Fatalf("Get(%d) = (%v, %v), want %d", key, got, ok, want)
		}
	}
	for _, miss := range []int64{m.lo - 1, m.lo + n, -1} {
		if _, ok := s.Get(miss); ok {
			t.Fatalf("Get(%d) succeeded outside [%d, %d]", miss, m.lo, m.lo+n-1)
		}
	}
	next := m.lo
	s.Ascend(func(k int64, e *entry) bool {
		if k != next || !is(e, k, m.vals[k-m.lo]) {
			t.Fatalf("Ascend visited (%d, %v), want key %d", k, e, next)
		}
		next++
		return true
	})
	if next != m.lo+n {
		t.Fatalf("Ascend stopped at %d, want %d", next, m.lo+n)
	}
	if got := reachableBelow(s); got != 0 {
		t.Fatalf("%d values below key %d still reachable", got, m.lo)
	}
	if n > 0 {
		if d, max := depth(s), logw(m.lo+n-1)+1; d > max {
			t.Fatalf("lookup depth %d for max key %d, want <= %d", d, m.lo+n-1, max)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	var s *Seq[entry]
	check(t, s, model{})
	if s.DropBelow(5) != nil {
		t.Error("DropBelow on the empty sequence returned non-nil")
	}
	if _, _, ok := s.FindFirst(0, func(*entry) bool { return true }); ok {
		t.Error("FindFirst on the empty sequence succeeded")
	}
	s.Ascend(func(int64, *entry) bool { t.Error("Ascend visited an entry"); return false })
}

func TestAppendGet(t *testing.T) {
	for _, from := range []int64{0, 1, 15, 16, 255, 4095, 1 << 40} {
		s, m := build(from, 1000, func(k int64) int { return int(k*2 + 1) })
		check(t, s, m)
	}
}

// TestAppendOutOfOrderPanics pins the append-only contract: the store has no
// insert at an arbitrary key, so a key other than max+1 is a caller bug.
func TestAppendOutOfOrderPanics(t *testing.T) {
	s, _ := build(3, 5, func(k int64) int { return 1 })
	var empty *Seq[entry]
	for name, f := range map[string]func(){
		"replace max":  func() { app(s, 7, 2) },
		"below min":    func() { app(s, 2, 2) },
		"gap":          func() { app(s, 9, 2) },
		"negative key": func() { app(empty, -1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestExtendingLoserPanics pins the other half of the Seq contract: of two
// versions appended to one parent (a Refresh winner and loser), once one has
// been extended the other cannot be, wherever their shared slot falls in its
// chunk (the last slot included: n=14). Two builders on the winner write the
// same value into that slot and are fine.
func TestExtendingLoserPanics(t *testing.T) {
	for _, n := range []int64{1, 14, 16, 17, 300} {
		parent, m := build(1, n, func(k int64) int { return int(k) })
		winner, loser := app(parent, n+1, -1), app(parent, n+1, -2)
		again := app(winner, n+2, -3)
		check(t, app(winner, n+2, -3), m.appendVal(-1).appendVal(-3))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d: extending the loser after the winner did not panic", n)
				}
			}()
			app(loser, n+2, -4)
		}()
		// The failed extension left every version as it was.
		check(t, parent, m)
		check(t, loser, m.appendVal(-2))
		check(t, again, m.appendVal(-1).appendVal(-3))
	}
}

func TestPersistence(t *testing.T) {
	versions := []*Seq[entry]{nil}
	models := []model{{lo: 1}}
	for i := 1; i <= 600; i++ {
		versions = append(versions, app(versions[i-1], int64(i), i))
		models = append(models, models[i-1].appendVal(i))
	}
	for i, v := range versions {
		check(t, v, models[i])
	}
	// Two divergent appends from one parent (a Refresh winner and loser):
	// neither sees the other's value and the parent sees neither, whether
	// the append lands in the tail or pushes a full chunk into the trie.
	for _, n := range []int{1, 15, 16, 17, 255, 256, 600} {
		parent := versions[n]
		a := app(parent, int64(n+1), -1)
		b := app(parent, int64(n+1), -2)
		check(t, parent, models[n])
		check(t, a, models[n].appendVal(-1))
		check(t, b, models[n].appendVal(-2))
	}
}

func TestPersistenceAcrossDropBelow(t *testing.T) {
	for _, bound := range []int64{0, 1, 2, 16, 17, 500, 512, 991, 992, 993, 1000, 1001} {
		// A fresh s per bound: the versions dropped from one s share its
		// tail, so extending two of them would extend siblings.
		s, m := build(1, 1000, func(k int64) int { return int(k) })
		after := s.DropBelow(bound)
		check(t, s, m)
		check(t, after, m.dropBelow(bound))
		if after != nil {
			// The dropped version keeps growing without disturbing s.
			grown := app(app(after, 1001, 7), 1002, 8)
			check(t, grown, m.dropBelow(bound).appendVal(7).appendVal(8))
			check(t, s, m)
			check(t, after, m.dropBelow(bound))
		}
	}
}

// TestPersistenceConcurrent runs the Refresh race for the race detector: two
// writers repeatedly derive candidates from the published version, one of
// them sometimes dropping a prefix first, and install them by CAS, while a
// reader walks the first parent and the published versions. Candidates
// share their parent's tail slot, which both writers fill at once; the
// losers are never extended.
func TestPersistenceConcurrent(t *testing.T) {
	for _, n := range []int64{5, 16, 300} {
		parent, m := build(1, n, func(k int64) int { return int(k) })
		var pub atomic.Pointer[Seq[entry]]
		pub.Store(parent)
		const installs = 40
		losers := make([][]*Seq[entry], 2)
		var wg sync.WaitGroup
		for w := range losers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range installs {
					for {
						cur := pub.Load()
						cand := cur
						if (cur.hi+1)%16 == 0 {
							cand = cand.DropBelow(n / 2)
						}
						cand = app(cand, cur.hi+1, -(w + 1))
						if pub.CompareAndSwap(cur, cand) {
							break
						}
						losers[w] = append(losers[w], cand)
					}
				}
			}()
		}
		done := make(chan struct{})
		var reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for k := int64(1); k <= n; k++ {
					if e, ok := parent.Get(k); !ok || e.key != k || e.v != int(k) {
						t.Errorf("parent Get(%d) = (%v, %v) during divergent appends", k, e, ok)
						return
					}
				}
				s := pub.Load()
				s.Ascend(func(k int64, e *entry) bool {
					if e.key != k {
						t.Errorf("published Get(%d) read the entry of key %d", k, e.key)
					}
					return e.key == k
				})
			}
		}()
		wg.Wait()
		close(done)
		reader.Wait()
		check(t, parent, m)

		// The published version holds the parent's keys from n/2 (or 1) on,
		// then each writer's 40 installs in the order they won.
		s := pub.Load()
		want := m.dropBelow(n / 2)
		won := make([]int, 2)
		for k := n + 1; k <= n+2*installs; k++ {
			e, _ := s.Get(k)
			if e == nil || e.key != k || (e.v != -1 && e.v != -2) {
				t.Fatalf("n=%d: published Get(%d) = %v, want a writer's entry", n, k, e)
			}
			won[-e.v-1]++
			want = want.appendVal(e.v)
		}
		if won[0] != installs || won[1] != installs {
			t.Fatalf("n=%d: writers won %v installs, want %d each", n, won, installs)
		}
		check(t, s, want)
		for w, ls := range losers {
			for _, l := range ls {
				if e, _ := l.Get(l.hi); e.key != l.hi || e.v != -(w+1) {
					t.Fatalf("n=%d: writer %d's losing candidate reads %v at its max key %d", n, w, e, l.hi)
				}
				if reachableBelow(l) != 0 {
					t.Fatalf("n=%d: a losing candidate keeps dropped values reachable", n)
				}
			}
		}
	}
}

func TestMinMaxTracking(t *testing.T) {
	s, m := build(10, 1, func(k int64) int { return int(k) })
	for k := int64(11); k < 100; k++ {
		s, m = app(s, k, int(k)), m.appendVal(int(k))
		if k%7 == 0 {
			s, m = s.DropBelow(k-20), m.dropBelow(k-20)
		}
		check(t, s, m) // Min and Max among the rest
	}
}

func TestFindFirst(t *testing.T) {
	// v = key*10, monotone in key.
	s, _ := build(0, 100, func(k int64) int { return int(k * 10) })
	s = s.DropBelow(7)
	atLeast := func(target int) func(*entry) bool {
		return func(e *entry) bool { return e.v >= target }
	}
	for _, target := range []int{71, 75, 80, 150, 160, 500, 990} {
		for _, hint := range []int64{math.MinInt64, 0, 7, 50, 99, 200, math.MaxInt64} {
			k, e, ok := s.FindFirst(hint, atLeast(target))
			want := int64(target+9) / 10
			if !ok || k != want || e.key != want {
				t.Fatalf("FindFirst(%d, >=%d) = (%d, %v, %v), want key %d", hint, target, k, e, ok, want)
			}
		}
	}
	// All true: the minimum, even though smaller keys once matched too.
	if k, e, ok := s.FindFirst(50, atLeast(0)); !ok || k != 7 || e.v != 70 {
		t.Fatalf("FindFirst(all true) = (%d, %v, %v), want key 7", k, e, ok)
	}
	// All false.
	if _, _, ok := s.FindFirst(50, atLeast(991)); ok {
		t.Error("FindFirst past max succeeded")
	}
	// Every cut of a sequence that spans the trie and the tail, from every
	// hint: the same answer, found in O(log distance) evaluations.
	s, m := build(3, 300, func(k int64) int { return int(k) })
	for cut := m.lo - 1; cut <= m.lo+300; cut++ {
		want := max(cut, m.lo)
		for hint := m.lo - 2; hint <= m.lo+301; hint++ {
			evals := 0
			k, _, ok := s.FindFirst(hint, func(e *entry) bool { evals++; return int64(e.v) >= cut })
			if ok != (cut < m.lo+300) || ok && k != want {
				t.Fatalf("FindFirst(%d, >=%d) = (%d, %v), want key %d", hint, cut, k, ok, want)
			}
			if !ok {
				continue
			}
			d := want - min(max(hint, m.lo), m.lo+299)
			if limit := 2*bits.Len64(uint64(max(d, -d))) + 2; evals > limit {
				t.Fatalf("FindFirst(%d, >=%d) evaluated pred %d times for distance %d, want <= %d", hint, cut, evals, d, limit)
			}
		}
	}
}

func TestAgainstSortedSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var s *Seq[entry]
	m := model{lo: 40}
	type version struct {
		s *Seq[entry]
		m model
	}
	var kept []version
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(40); {
		case r == 0 && len(m.vals) > 0: // drop a random prefix, sometimes all
			bound := m.lo + int64(rng.Intn(len(m.vals)+2))
			s, m = s.DropBelow(bound), m.dropBelow(bound)
			if s == nil {
				m.lo = int64(rng.Intn(5000))
			}
		default:
			v := 1 + rng.Intn(1<<20)
			s, m = app(s, m.lo+int64(len(m.vals)), v), m.appendVal(v)
		}
		if step%61 == 0 {
			check(t, s, m)
			kept = append(kept, version{s, m})
		}
	}
	check(t, s, m)
	// Every kept ancestor still reads exactly as it did when it was current.
	for _, v := range kept {
		check(t, v.s, v.m)
	}
}

func TestBalanceConsecutiveKeys(t *testing.T) {
	// The queue appends consecutive indices; a lookup visits at most
	// ceil(log_w(max key))+1 nodes (check enforces it at every size).
	var s *Seq[entry]
	const n = 1 << 16
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	for i := int64(0); i < n; i++ {
		s = app(s, i, 1)
		if i&(i+1) == 0 || i&(i-1) == 0 {
			check(t, s, model{0, ones[:i+1]})
		}
	}
	if d := depth(s); d != logw(n) {
		t.Fatalf("depth %d for %d consecutive keys, want %d", d, n, logw(n))
	}
}

func TestBalanceAfterDropBelow(t *testing.T) {
	// A queue's live window slides up forever; depth must follow the window
	// and not the largest key: under 512 live keys need two branch levels,
	// more only while the window straddles a higher digit boundary (here
	// 2^32+2^16 at worst), and the extra levels go once it has passed.
	s, m := build(1<<32, 1, func(int64) int { return 1 })
	deepest := 0
	for i := int64(1); i < 1<<17+2048; i++ {
		s, m = app(s, 1<<32+i, 1), m.appendVal(1)
		if i%256 == 255 {
			s, m = s.DropBelow(1<<32+i-256), m.dropBelow(1<<32+i-256)
			check(t, s, m)
			deepest = max(deepest, depth(s))
		}
	}
	if deepest != 5 || depth(s) != 3 {
		t.Fatalf("depth reached %d and ended at %d with <= 512 live keys, want 5 and 3", deepest, depth(s))
	}
}

func TestQuickAppendMembership(t *testing.T) {
	f := func(from uint16, vals []int) bool {
		var s *Seq[entry]
		for i, v := range vals {
			s = app(s, int64(from)+int64(i), v)
		}
		if s.Size() != int64(len(vals)) {
			return false
		}
		for i, v := range vals {
			if e, ok := s.Get(int64(from) + int64(i)); !ok || e.v != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDropBelowPartition(t *testing.T) {
	f := func(from, n, bound uint16) bool {
		s, _ := build(int64(from), int64(n%2048), func(k int64) int { return int(k) + 1 })
		lo, hi := int64(from), int64(from)+int64(n%2048)
		dropped := s.DropBelow(int64(bound))
		ok := dropped.Size() == max(0, hi-max(lo, int64(bound)))
		dropped.Ascend(func(k int64, _ *entry) bool {
			ok = ok && k >= int64(bound)
			return ok
		})
		// Every original key >= bound survives with its value; none below.
		for k := lo; k < hi; k++ {
			e, found := dropped.Get(k)
			ok = ok && found == (k >= int64(bound)) && (!found || e.v == int(k)+1)
		}
		return ok && reachableBelow(dropped) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReclamation is Theorem 31 as a statement about memory: the blocks a GC
// phase drops are not merely uncounted by Size, they are unreachable from
// the installed version (check looks through every chunk, the tail, the
// version and its base), whichever level of the structure the cut falls in.
func TestReclamation(t *testing.T) {
	s, m := build(0, 5000, func(k int64) int { return int(k) + 1 })
	for _, bound := range []int64{1, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097, 4975, 4976, 4990, 4999} {
		s, m = s.DropBelow(bound), m.dropBelow(bound)
		check(t, s, m)
	}
}

// TestBranchSize pins a trie branch at 16 words: one child array, typed by
// level, so a path copy moves 128 bytes per level.
func TestBranchSize(t *testing.T) {
	if n := unsafe.Sizeof(branch[entry]{}); n != 128 {
		t.Fatalf("sizeof(branch) = %d bytes, want 128", n)
	}
}

// TestAllocsAppend pins what Append allocates: on a key inside the tail
// chunk one version of at most 24 bytes, which shares its parent's base; on
// the key that starts a chunk also a 48-byte base, a 128-byte tail chunk and
// the trie path the full tail is pushed along, one 128-byte branch per
// level.
func TestAllocsAppend(t *testing.T) {
	e := &entry{}
	for _, c := range []struct {
		hi            int64 // largest key of the version appended to
		allocs, bytes float64
	}{
		{100, 1, 24},
		{255, 4, 24 + 48 + 128 + 128},
		{767, 5, 24 + 48 + 128 + 2*128},
	} {
		s, _ := build(0, c.hi+1, func(k int64) int { return int(k) })
		var sink *Seq[entry]
		next := func() { sink = s.Append(c.hi+1, e) }
		allocs := testing.AllocsPerRun(1000, next)
		bytes := bytesPerRun(1000, next)
		if allocs != c.allocs || bytes > c.bytes {
			t.Errorf("Append(%d): %.2f allocs and %.0f bytes, want %.0f and <= %.0f", c.hi+1, allocs, bytes, c.allocs, c.bytes)
		}
		if k, v, _ := sink.Max(); k != c.hi+1 || v != e {
			t.Fatalf("Append(%d) made a version whose max is %d", c.hi+1, k)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after a warm-up call, at GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

func BenchmarkAppendSequential(b *testing.B) {
	var s *Seq[entry]
	e := &entry{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = s.Append(int64(i), e)
		if i&1023 == 1023 {
			s = s.DropBelow(int64(i - 2048))
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s, _ := build(0, 1<<16, func(k int64) int { return int(k) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(int64(i) & (1<<16 - 1))
	}
}
