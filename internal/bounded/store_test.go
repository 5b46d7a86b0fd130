package bounded

// Tests of the block store (store.go) on its own, against a slice model:
// blocks at dense indices from 0, with a dropped prefix.

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/metrics"
)

// storeModel is the oracle: blocks[i] is the block at index i, and every
// index below lo was dropped.
type storeModel struct {
	lo     int64
	blocks []*block
}

// appendN installs n blocks after the model's newest, the k-th with sumEnq
// growing by step(k), in the store and in the model.
func (m *storeModel) appendN(s *store, n int, step func(k int) int64) {
	for k := 0; k < n; k++ {
		b := &block{index: int64(len(m.blocks))}
		if b.index > 0 {
			b.sumEnq = m.blocks[b.index-1].sumEnq + step(k)
		}
		if b.index == 0 {
			s.init(b)
		} else if !s.install(b, true, nil) {
			panic("install at the store's next index lost")
		}
		m.blocks = append(m.blocks, b)
	}
}

// drop drops the prefix below split in the store and in the model.
func (m *storeModel) drop(s *store, split int64) {
	s.drop(split, nil)
	m.lo = max(m.lo, split)
}

// want is what load(i) must return: tomb below lo, nil past the newest.
func (m *storeModel) want(i int64) any {
	switch {
	case i < m.lo:
		return "tomb"
	case i >= int64(len(m.blocks)):
		return "nil"
	}
	return m.blocks[i]
}

// got turns a load result into want's terms.
func got(p unsafe.Pointer) any {
	switch p {
	case tomb:
		return "tomb"
	case nil:
		return "nil"
	}
	return (*block)(p)
}

// firstAtLeast is findFirst's answer by a linear scan: the first live block
// with sumEnq >= target.
func (m *storeModel) firstAtLeast(target int64) *block {
	for _, b := range m.blocks[m.lo:] {
		if b.sumEnq >= target {
			return b
		}
	}
	return nil
}

// checkFind runs findFirst(sumEnq >= target) from hint and compares its
// answer with the model's first live block at or above target, and the
// predecessor it returns with the model's entry before that block.
func (m *storeModel) checkFind(t *testing.T, s *store, hint, target int64) {
	t.Helper()
	b, prev, ok := s.findFirst(hint, func(b *block) bool { return b.sumEnq >= target }, nil)
	want := m.firstAtLeast(target)
	if b != want || ok != (want != nil) {
		t.Fatalf("lo %d: findFirst(%d, sumEnq >= %d) = %v, %v; want %v", m.lo, hint, target, b, ok, want)
	}
	if ok && got(prev) != m.want(want.index-1) {
		t.Fatalf("lo %d: findFirst(%d, sumEnq >= %d) = block %d after %v, want after %v",
			m.lo, hint, target, want.index, got(prev), m.want(want.index-1))
	}
}

// check compares every index from -2 to two chunks past the newest.
func (m *storeModel) check(t *testing.T, s *store) {
	t.Helper()
	for i := int64(-2); i < int64(len(m.blocks))+2*fan; i++ {
		if p := s.load(i, nil); got(p) != m.want(i) {
			t.Fatalf("load(%d) = %v, want %v", i, got(p), m.want(i))
		}
	}
	if lo := s.lo.Load(); lo != m.lo {
		t.Fatalf("lo = %d, want %d", lo, m.lo)
	}
}

// chunkOf returns the chunk holding index i, walking the trie as load does.
func chunkOf(s *store, i int64) *radix {
	t := s.top.Load()
	r := &t.root.slots
	for sh := t.shift; sh > 0; sh -= fanBits {
		r = (*radix)(r[(i>>sh)&fanMask])
	}
	return r
}

// TestAllocsStoreInstall counts the heap allocations of fan*fan-1 installs
// into a fresh store, which move its tail into a new chunk fan-1 times: one
// per chunk the walks make and one for the trie's top, which rises once. A
// tail record of its own, allocated at each move, would double the count.
func TestAllocsStoreInstall(t *testing.T) {
	const n = fan*fan - 1
	blocks := make([]block, n+1)
	for i := range blocks {
		blocks[i].index = int64(i)
	}
	var s store
	s.init(&blocks[0])
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i <= n; i++ {
		s.install(&blocks[i], true, nil)
	}
	runtime.ReadMemStats(&m1)
	if got, want := m1.Mallocs-m0.Mallocs, uint64(fan); got > want {
		t.Errorf("%d installs made %d heap allocations, want %d: %d chunks and a trie top", n, got, want, fan-1)
	}
	if tl := s.tail.Load(); tl.base != n&^fanMask {
		t.Errorf("tail at base %d after %d installs, want %d", tl.base, n, n&^fanMask)
	}
}

func TestStore(t *testing.T) {
	unit := func(int) int64 { return 1 }
	// n blocks reach two trie levels above the chunks when n > fan*fan.
	const n = fan*fan + 3*fan + 5
	for _, c := range []struct {
		name string
		run  func(t *testing.T, s *store, m *storeModel)
	}{
		{"get across chunk and level boundaries", func(t *testing.T, s *store, m *storeModel) {
			for _, upTo := range []int{1, fan - 1, fan, fan + 1, fan * fan, n} {
				m.appendN(s, upTo-len(m.blocks), unit)
				m.check(t, s)
			}
			if sh := s.top.Load().shift; sh != 2*fanBits {
				t.Fatalf("top at shift %d after %d blocks, want %d", sh, n, 2*fanBits)
			}
		}},
		{"findFirst across chunk and level boundaries", func(t *testing.T, s *store, m *storeModel) {
			m.appendN(s, n, func(k int) int64 { return int64(k % 2) })
			for _, split := range []int64{0, fan + 7, fan * fan} {
				m.drop(s, split)
				for _, target := range []int64{0, 1, fan / 2, fan*fan/2 - 1, fan * fan / 2, int64(n)} {
					for _, hint := range []int64{-5, 0, fan - 1, fan, fan*fan - 1, fan * fan, n - 1, n + 70} {
						m.checkFind(t, s, hint, target)
					}
				}
			}
		}},
		{"drop that cuts mid-chunk", func(t *testing.T, s *store, m *storeModel) {
			m.appendN(s, n, unit)
			for _, split := range []int64{fan/2 + 1, fan + 3, 3*fan - 1, fan*fan + 2, fan*fan + 2, fan*fan + 1} {
				m.drop(s, split)
				m.check(t, s)
			}
			m.appendN(s, 2*fan, unit)
			m.check(t, s)
		}},
		{"reader holds a chunk across a drop", func(t *testing.T, s *store, m *storeModel) {
			m.appendN(s, 3*fan, unit)
			whole, part := chunkOf(s, fan), chunkOf(s, 2*fan)
			m.drop(s, 2*fan+5)
			m.check(t, s)
			// The wholly dead chunk is unlinked, not cleared: a reader that
			// loaded it still reads its blocks, and a stale installer there
			// finds every slot taken. The partly dead chunk is the one the
			// store still links, so its dead slots read tomb.
			for i := int64(0); i < fan; i++ {
				if p := atomic.LoadPointer(&whole[i]); p != unsafe.Pointer(m.blocks[fan+i]) {
					t.Fatalf("held chunk slot %d = %v, want block %d", i, p, fan+i)
				}
			}
			for i := int64(0); i < fan; i++ {
				want := unsafe.Pointer(m.blocks[2*fan+i])
				if i < 5 {
					want = tomb
				}
				if p := atomic.LoadPointer(&part[i]); p != want {
					t.Fatalf("partly dead chunk slot %d = %v, want %v", i, p, want)
				}
			}
			if b := (&block{index: fan + 3}); s.install(b, true, nil) {
				t.Fatal("an install into a dropped chunk won")
			}
		}},
		{"a drop moves a held-back tail before it unlinks", func(t *testing.T, s *store, m *storeModel) {
			// The tail lags on chunk 0, as it does while the installer that
			// walked into chunk 1 has yet to move it; the drop below
			// unlinks chunks 0 and 1 whole, so every load below the split
			// must read tomb, also those inside the held chunk.
			m.appendN(s, fan/2, unit)
			held := s.tail.Load()
			m.appendN(s, 3*fan, unit)
			s.tail.Store(held)
			m.drop(s, 2*fan+5)
			m.check(t, s)
			if tl := s.tail.Load(); tl.base != 2*fan || &tl.slots != chunkOf(s, 2*fan) {
				t.Fatalf("tail at base %d after a drop to %d, want base %d", tl.base, 2*fan+5, 2*fan)
			}
		}},
		{"a drop overtakes a search", func(t *testing.T, s *store, m *storeModel) {
			// A search from a stale lo, as Handle.oldest makes: it gallops
			// over the tombstones below 9 to the empty index 16, and its
			// binary search finds 12 empty too. Its probe of block 10 then
			// stages what a preempted search can meet: other handles fill
			// 12 and beyond and a GC phase drops below 30, so every later
			// probe reads a tombstone. pred is the cut the drop moves:
			// false at block 10, which the drop unlinks, and true at every
			// block that outlives it.
			m.appendN(s, 12, unit)
			m.drop(s, 9)
			staged := false
			pred := func(b *block) bool {
				if staged {
					return true
				}
				if b.index != 10 {
					t.Fatalf("first evaluation at block %d, want 10", b.index)
				}
				staged = true
				m.appendN(s, 29, unit)
				m.drop(s, 30)
				return false
			}
			b, _, ok := s.findFirst(0, pred, nil)
			if !staged {
				t.Fatal("the search never evaluated block 10")
			}
			if want := m.blocks[30]; b != want || !ok {
				t.Fatalf("findFirst overtaken by a drop = %v, %v; want block 30", b, ok)
			}
		}},
		{"findFirst probes O(log d) indices", func(t *testing.T, s *store, m *storeModel) {
			m.appendN(s, 3*fan+30, unit)
			m.drop(s, 3)
			last := int64(len(m.blocks)) - 1
			// A probe loads at most the tail, the top and every level of
			// the trie.
			perProbe := int64(3 + s.top.Load().shift/fanBits)
			for cut := m.lo - 1; cut <= last+1; cut++ {
				want := m.firstAtLeast(cut)
				for hint := m.lo - 2; hint <= last+2; hint++ {
					evals := 0
					var c metrics.Counter
					b, _, ok := s.findFirst(hint, func(b *block) bool { evals++; return b.sumEnq >= cut }, &c)
					if b != want || ok != (want != nil) {
						t.Fatalf("findFirst(%d, sumEnq >= %d) = %v, %v; want %v", hint, cut, b, ok, want)
					}
					if !ok {
						continue
					}
					d := want.index - hint
					limit := int64(2*bits.Len64(uint64(max(d, -d))) + 2)
					if int64(evals) > limit || c.Reads > limit*perProbe {
						t.Fatalf("findFirst(%d, sumEnq >= %d): %d evaluations and %d loads for distance %d, want <= %d and <= %d",
							hint, cut, evals, c.Reads, d, limit, limit*perProbe)
					}
				}
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s store
			c.run(t, &s, &storeModel{})
		})
	}
}

// FuzzStore interprets data as pairs (op, arg) run against a store and its
// slice model:
//
//	op%4 == 0: append 1+arg%70 blocks, sumEnq growing by 0 or 1 each
//	op%4 == 1: drop below an installed index picked by arg
//	op%4 == 2: load an index picked by arg, from below 0 to past the newest
//	op%4 == 3: findFirst(sumEnq >= target) from a hint, both picked by arg
//
// Every load must answer as the model does, and every search must find the
// model's first live block at or above its target and, as its predecessor,
// the model's entry before that block: a block, or the tombstone.
func FuzzStore(f *testing.F) {
	f.Add([]byte{0, 69, 0, 69, 1, 40, 2, 3, 3, 9})
	f.Add([]byte{0, 63, 0, 0, 1, 1, 0, 69, 1, 200, 3, 77, 2, 254})
	f.Add([]byte{0, 69, 0, 69, 0, 69, 0, 69, 0, 69, 0, 69, 1, 255, 3, 1, 1, 7, 2, 100})
	f.Add([]byte{1, 0, 2, 0, 3, 0, 0, 5, 1, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s store
		m := &storeModel{}
		m.appendN(&s, 1, nil)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], int64(data[i+1])
			next := int64(len(m.blocks))
			switch op % 4 {
			case 0:
				m.appendN(&s, 1+int(arg%70), func(k int) int64 { return int64(k+int(arg)) % 2 })
			case 1:
				m.drop(&s, m.lo+arg*arg%(next-m.lo))
			case 2:
				idx := arg*arg%(next+fan+3) - 2
				if p := s.load(idx, nil); got(p) != m.want(idx) {
					t.Fatalf("step %d: load(%d) = %v, want %v", i/2, idx, got(p), m.want(idx))
				}
			case 3:
				hint := arg*31%(next+5) - 2
				target := arg % (m.blocks[next-1].sumEnq + 2)
				m.checkFind(t, &s, hint, target)
			}
		}
	})
}
