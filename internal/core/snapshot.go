package core

// Snapshot support: a structural dump of the ordering tree used by the
// treeviz renderer, the Figure 1/2 reproduction, and white-box tests. A
// snapshot is not atomic with respect to concurrent operations; take it
// while the queue is quiescent for exact results.

// BlockKind classifies what a leaf block represents.
type BlockKind int

// Block kinds. Internal and root blocks are KindInternal.
const (
	KindDummy BlockKind = iota + 1
	KindEnqueue
	KindDequeue
	KindInternal
)

// BlockSnapshot is an immutable copy of one block's fields.
type BlockSnapshot struct {
	Index    int64
	SumEnq   int64
	SumDeq   int64
	EndLeft  int64
	EndRight int64
	Size     int64
	Super    int64
	Kind     BlockKind
	Element  any
}

// NodeSnapshot is a copy of one tree node's observable state.
type NodeSnapshot struct {
	// Path locates the node: "" is the root, then "L"/"R" steps, e.g. "LR".
	Path   string
	IsLeaf bool
	IsRoot bool
	LeafID int // -1 for internal nodes
	Head   int64
	Blocks []BlockSnapshot
}

// TreeSnapshot is a full structural dump of the ordering tree, in preorder.
type TreeSnapshot struct {
	Procs int
	Nodes []NodeSnapshot
}

// Snapshot captures the current state of every node's blocks array. Blocks
// are read up to and including any block installed at the head position.
// The walk descends the flat heap layout (children 2v/2v+1) in preorder so
// the Path strings match the pointer-tree era exactly.
func (q *Queue[T]) Snapshot() TreeSnapshot {
	snap := TreeSnapshot{Procs: q.procs}
	nodes := q.tree()
	var walk func(v int, path string)
	walk = func(v int, path string) {
		n := &nodes[v]
		leafID := -1
		if q.isLeaf(v) {
			leafID = v - q.numLeaves
		}
		ns := NodeSnapshot{
			Path:   path,
			IsLeaf: q.isLeaf(v),
			IsRoot: v == rootIdx,
			LeafID: leafID,
			Head:   n.head.Load(),
		}
		// Read past head while blocks exist: a block may be installed at
		// head before any advance runs.
		for i := int64(0); ; i++ {
			b := n.blocks.Get(i)
			if b == nil {
				break
			}
			bs := BlockSnapshot{Index: i, SumEnq: b.sumEnq, SumDeq: b.sumDeq}
			if v == rootIdx {
				bs.Size = b.size()
			} else {
				bs.Super = b.sizeOrSuper.Load()
			}
			if !q.isLeaf(v) {
				ib := innerOf(b)
				bs.EndLeft, bs.EndRight = ib.endLeft, ib.endRight
			}
			switch {
			case i == 0:
				bs.Kind = KindDummy
			case !q.isLeaf(v):
				bs.Kind = KindInternal
			default:
				// Only an enqueue block is a leafBlock; a dequeue block
				// is a bare header, so the sums decide before leafOf.
				prev := n.blocks.Get(i - 1)
				if b.sumEnq > prev.sumEnq {
					bs.Kind = KindEnqueue
					if lb := leafOf[T](b); lb.elems != nil {
						// Multi-op batch block: expose the whole value set.
						bs.Element = lb.elems
					} else {
						bs.Element = lb.element
					}
				} else {
					bs.Kind = KindDequeue
				}
			}
			ns.Blocks = append(ns.Blocks, bs)
		}
		snap.Nodes = append(snap.Nodes, ns)
		if !q.isLeaf(v) {
			walk(2*v, path+"L")
			walk(2*v+1, path+"R")
		}
	}
	walk(rootIdx, "")
	return snap
}
