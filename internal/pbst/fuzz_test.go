package pbst

// Fuzz target. Under plain `go test` it runs its seed corpus; under
// `go test -fuzz=FuzzTreeOps` it explores the operation space. The oracle is
// the slice model of pbst_test.go.

import (
	"bytes"
	"testing"
)

// FuzzTreeOps interprets data as a little program over {Append, DropBelow,
// fork} and cross-checks the sequence against the slice model after every
// step. A fork appends to the current version twice and keeps the second
// result, then re-checks the first (the Refresh loser's candidate) and the
// parent: neither may have seen the other's value.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 5, 0, 9, 2, 6, 3, 5})
	f.Add([]byte{7, 0, 1, 1, 2, 1, 3, 200})
	f.Add(bytes.Repeat([]byte{0, 7, 3, 1}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var s *Seq[int]
		m := model{lo: int64(data[0]) << (data[0] % 40)}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%4, int(data[i+1])
			next := m.lo + int64(len(m.vals))
			switch op {
			case 0, 1: // append a run, so that chunks fill and the trie grows
				for j := 0; j <= arg%40; j++ {
					s, m = s.Append(next+int64(j), arg+1), m.appendVal(arg+1)
				}
			case 2: // fork
				parent, pm := s, m
				loser := parent.Append(next, -1)
				s, m = parent.Append(next, arg+1), pm.appendVal(arg+1)
				check(t, loser, pm.appendVal(-1))
				check(t, parent, pm)
			case 3: // drop below, up to one past the end
				bound := m.lo + int64(arg)%(int64(len(m.vals))+2)
				lo := m.lo
				s, m = s.DropBelow(bound), m.dropBelow(bound)
				if s == nil {
					m.lo = lo // the emptied sequence restarts where it began
				}
			}
			check(t, s, m)
		}
	})
}
