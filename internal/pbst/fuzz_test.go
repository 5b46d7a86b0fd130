package pbst

// Fuzz target. Under plain `go test` it runs its seed corpus; under
// `go test -fuzz=FuzzTreeOps` it explores the operation space. The oracle is
// the slice model of pbst_test.go.

import (
	"bytes"
	"testing"
)

// FuzzTreeOps interprets data as a little program over {Append, DropBelow,
// fork, FindFirst} and cross-checks the sequence against the slice model
// after every step. A fork appends to the current version twice and keeps
// the second result, then re-checks the first (the Refresh loser's
// candidate) and the parent: neither may have seen the other's value. A
// FindFirst searches for the first key at or above a threshold from a hint,
// both drawn from the program and allowed to fall outside the live range.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 5, 0, 9, 2, 6, 3, 5})
	f.Add([]byte{7, 0, 1, 1, 2, 1, 3, 200})
	f.Add(bytes.Repeat([]byte{0, 7, 3, 1}, 40))
	f.Add(bytes.Repeat([]byte{0, 30, 1, 39, 4, 17, 104, 250}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var s *Seq[entry]
		m := model{lo: int64(data[0]) << (data[0] % 40)}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%5, int(data[i+1])
			size := int64(len(m.vals))
			next := m.lo + size
			switch op {
			case 0, 1: // append a run, so that chunks fill and the trie grows
				for j := 0; j <= arg%40; j++ {
					s, m = app(s, next+int64(j), arg+1), m.appendVal(arg+1)
				}
			case 2: // fork
				parent, pm := s, m
				loser := app(parent, next, -1)
				s, m = app(parent, next, arg+1), pm.appendVal(arg+1)
				check(t, loser, pm.appendVal(-1))
				check(t, parent, pm)
			case 3: // drop below, up to one past the end
				bound := m.lo + int64(arg)%(size+2)
				lo := m.lo
				s, m = s.DropBelow(bound), m.dropBelow(bound)
				if s == nil {
					m.lo = lo // the emptied sequence restarts where it began
				}
			case 4: // find the first key >= cut from hint, one past each end included
				cut := m.lo - 1 + int64(arg)%(size+2)
				hint := m.lo - 1 + int64(data[i]/5)*(size+2)/52
				k, e, ok := s.FindFirst(hint, func(e *entry) bool { return e.key >= cut })
				want := max(cut, m.lo)
				if ok != (want < next) || ok && (k != want || e.key != want || e.v != m.vals[want-m.lo]) {
					t.Fatalf("FindFirst(%d, key >= %d) = (%d, %v, %v) on [%d, %d), want key %d",
						hint, cut, k, e, ok, m.lo, next, want)
				}
			}
			check(t, s, m)
		}
	})
}
