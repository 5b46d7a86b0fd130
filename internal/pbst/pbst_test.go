package pbst

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

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
func build(from, n int64, val func(k int64) int) (*Seq[int], model) {
	var s *Seq[int]
	m := model{lo: from}
	for k := from; k < from+n; k++ {
		s = s.Append(k, val(k))
		m.vals = append(m.vals, val(k))
	}
	return s, m
}

// reachable counts the non-zero value slots reachable from s: what the
// version keeps alive for the garbage collector.
func reachable(s *Seq[int]) int64 {
	if s == nil {
		return 0
	}
	count := func(chunk *[chunkLen]int) (n int64) {
		for _, v := range chunk {
			if v != 0 {
				n++
			}
		}
		return n
	}
	var walk func(b *branch[int]) int64
	walk = func(b *branch[int]) (n int64) {
		if b == nil {
			return 0
		}
		for i := range b.sub {
			n += walk(b.sub[i])
			if b.leaf[i] != nil {
				n += count(b.leaf[i])
			}
		}
		return n
	}
	return walk(s.root) + count(&s.tail)
}

// depth is the number of nodes a lookup of s's smallest key visits: the
// branches above it plus its chunk.
func depth(s *Seq[int]) int {
	if s.root == nil {
		return 1
	}
	return int(s.shift/chunkBits) + 1
}

// logw returns ceil(log_chunkLen(n)) for n >= 1.
func logw(n int64) int {
	d := 0
	for p := int64(1); p < n; p *= chunkLen {
		d++
	}
	return d
}

// check compares every observable of s with the model; model values must be
// non-zero so that reachable can tell a live slot from a cleared one.
func check(t *testing.T, s *Seq[int], m model) {
	t.Helper()
	n := int64(len(m.vals))
	if s.Size() != n {
		t.Fatalf("Size = %d, model %d", s.Size(), n)
	}
	k, v, ok := s.Min()
	if ok != (n > 0) || ok && (k != m.lo || v != m.vals[0]) {
		t.Fatalf("Min = (%d, %d, %v), model lo %d size %d", k, v, ok, m.lo, n)
	}
	k, v, ok = s.Max()
	if ok != (n > 0) || ok && (k != m.lo+n-1 || v != m.vals[n-1]) {
		t.Fatalf("Max = (%d, %d, %v), model hi %d size %d", k, v, ok, m.lo+n-1, n)
	}
	for i, want := range m.vals {
		if got, ok := s.Get(m.lo + int64(i)); !ok || got != want {
			t.Fatalf("Get(%d) = (%d, %v), want %d", m.lo+int64(i), got, ok, want)
		}
	}
	for _, miss := range []int64{m.lo - 1, m.lo + n, -1} {
		if _, ok := s.Get(miss); ok {
			t.Fatalf("Get(%d) succeeded outside [%d, %d]", miss, m.lo, m.lo+n-1)
		}
	}
	next := m.lo
	s.Ascend(func(k int64, v int) bool {
		if k != next || v != m.vals[k-m.lo] {
			t.Fatalf("Ascend visited (%d, %d), want key %d", k, v, next)
		}
		next++
		return true
	})
	if next != m.lo+n {
		t.Fatalf("Ascend stopped at %d, want %d", next, m.lo+n)
	}
	if got := reachable(s); got != n {
		t.Fatalf("%d non-empty slots reachable, Size %d", got, n)
	}
	if n > 0 {
		if d, max := depth(s), logw(m.lo+n-1)+1; d > max {
			t.Fatalf("lookup depth %d for max key %d, want <= %d", d, m.lo+n-1, max)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	var s *Seq[int]
	check(t, s, model{})
	if s.DropBelow(5) != nil {
		t.Error("DropBelow on the empty sequence returned non-nil")
	}
	if _, _, ok := s.FindFirst(func(int) bool { return true }); ok {
		t.Error("FindFirst on the empty sequence succeeded")
	}
	s.Ascend(func(int64, int) bool { t.Error("Ascend visited an entry"); return false })
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
	var empty *Seq[int]
	for name, f := range map[string]func(){
		"replace max":  func() { s.Append(7, 2) },
		"below min":    func() { s.Append(2, 2) },
		"gap":          func() { s.Append(9, 2) },
		"negative key": func() { empty.Append(-1, 2) },
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

func TestPersistence(t *testing.T) {
	versions := []*Seq[int]{nil}
	models := []model{{lo: 1}}
	for i := 1; i <= 600; i++ {
		versions = append(versions, versions[i-1].Append(int64(i), i))
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
		a := parent.Append(int64(n+1), -1)
		b := parent.Append(int64(n+1), -2)
		check(t, parent, models[n])
		check(t, a, models[n].appendVal(-1))
		check(t, b, models[n].appendVal(-2))
	}
}

func TestPersistenceAcrossDropBelow(t *testing.T) {
	s, m := build(1, 1000, func(k int64) int { return int(k) })
	for _, bound := range []int64{0, 1, 2, 16, 17, 500, 512, 991, 992, 993, 1000, 1001} {
		after := s.DropBelow(bound)
		check(t, s, m)
		check(t, after, m.dropBelow(bound))
		if after != nil {
			// The dropped version keeps growing without disturbing s.
			grown := after.Append(1001, 7).Append(1002, 8)
			check(t, grown, m.dropBelow(bound).appendVal(7).appendVal(8))
			check(t, s, m)
		}
	}
}

// TestPersistenceConcurrent runs the Refresh race for the race detector: two
// writers derive divergent versions from one published parent while a
// reader walks the parent. Any write to memory reachable from the parent is
// a reported race.
func TestPersistenceConcurrent(t *testing.T) {
	for _, n := range []int64{5, 16, 300} {
		parent, m := build(1, n, func(k int64) int { return int(k) })
		results := make([]*Seq[int], 2)
		var wg sync.WaitGroup
		for w := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := parent
				for i := int64(1); i <= 40; i++ {
					s = s.Append(n+i, -(w + 1))
					if i%16 == 0 {
						s = s.DropBelow(n / 2)
					}
				}
				results[w] = s
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for k := int64(1); k <= n; k++ {
					if v, ok := parent.Get(k); !ok || v != int(k) {
						t.Errorf("parent Get(%d) = (%d, %v) during divergent appends", k, v, ok)
						return
					}
				}
			}
		}()
		wg.Wait()
		check(t, parent, m)
		for w, s := range results {
			want := m
			for i := 0; i < 40; i++ {
				want = want.appendVal(-(w + 1))
			}
			check(t, s, want.dropBelow(n/2))
		}
	}
}

func TestMinMaxTracking(t *testing.T) {
	s, m := build(10, 1, func(k int64) int { return int(k) })
	for k := int64(11); k < 100; k++ {
		s, m = s.Append(k, int(k)), m.appendVal(int(k))
		if k%7 == 0 {
			s, m = s.DropBelow(k-20), m.dropBelow(k-20)
		}
		check(t, s, m) // Min and Max among the rest
	}
}

func TestFindFirst(t *testing.T) {
	// val = key*10, monotone in key.
	s, _ := build(0, 100, func(k int64) int { return int(k * 10) })
	s = s.DropBelow(7)
	atLeast := func(target int) func(int) bool {
		return func(v int) bool { return v >= target }
	}
	for _, target := range []int{71, 75, 80, 150, 160, 500, 990} {
		k, v, ok := s.FindFirst(atLeast(target))
		want := int64(target+9) / 10
		if !ok || k != want || v != int(want*10) {
			t.Fatalf("FindFirst(>=%d) = (%d, %d, %v), want key %d", target, k, v, ok, want)
		}
	}
	// All true: the minimum, even though smaller keys once matched too.
	if k, v, ok := s.FindFirst(atLeast(0)); !ok || k != 7 || v != 70 {
		t.Fatalf("FindFirst(all true) = (%d, %d, %v), want key 7", k, v, ok)
	}
	// All false.
	if _, _, ok := s.FindFirst(atLeast(991)); ok {
		t.Error("FindFirst past max succeeded")
	}
	// Every cut of a sequence that spans the trie and the tail.
	s, m := build(3, 300, func(k int64) int { return int(k) })
	for cut := m.lo - 1; cut <= m.lo+300; cut++ {
		k, _, ok := s.FindFirst(atLeast(int(cut)))
		want := max(cut, m.lo)
		if ok != (cut < m.lo+300) || ok && k != want {
			t.Fatalf("FindFirst(>=%d) = (%d, %v), want key %d", cut, k, ok, want)
		}
	}
}

func TestAgainstSortedSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var s *Seq[int]
	m := model{lo: 40}
	type version struct {
		s *Seq[int]
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
			s, m = s.Append(m.lo+int64(len(m.vals)), v), m.appendVal(v)
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
	var s *Seq[int]
	const n = 1 << 16
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	for i := int64(0); i < n; i++ {
		s = s.Append(i, 1)
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
		s, m = s.Append(1<<32+i, 1), m.appendVal(1)
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
		var s *Seq[int]
		for i, v := range vals {
			s = s.Append(int64(from)+int64(i), v)
		}
		if s.Size() != int64(len(vals)) {
			return false
		}
		for i, v := range vals {
			if got, ok := s.Get(int64(from) + int64(i)); !ok || got != v {
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
		dropped.Ascend(func(k int64, _ int) bool {
			ok = ok && k >= int64(bound)
			return ok
		})
		// Every original key >= bound survives with its value; none below.
		for k := lo; k < hi; k++ {
			v, found := dropped.Get(k)
			ok = ok && found == (k >= int64(bound)) && (!found || v == int(k)+1)
		}
		return ok && reachable(dropped) == dropped.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReclamation is Theorem 31 as a statement about memory: the blocks a GC
// phase drops are not merely uncounted by Size, they are unreachable from
// the installed version (check counts the reachable non-empty slots),
// whichever level of the structure the cut falls in.
func TestReclamation(t *testing.T) {
	s, m := build(0, 5000, func(k int64) int { return int(k) + 1 })
	for _, bound := range []int64{1, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097, 4975, 4976, 4990, 4999} {
		s, m = s.DropBelow(bound), m.dropBelow(bound)
		check(t, s, m)
	}
}

func BenchmarkAppendSequential(b *testing.B) {
	var s *Seq[int]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = s.Append(int64(i), i)
		if i&1023 == 1023 {
			s = s.DropBelow(int64(i - 2048))
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s, _ := build(0, 1<<16, func(k int64) int { return int(k) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(int64(i) & (1<<16 - 1))
	}
}
