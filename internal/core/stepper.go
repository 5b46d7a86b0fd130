package core

// Deterministic scheduling hooks.
//
// A normal Enqueue/Dequeue appends a block to the process's leaf and
// immediately propagates it to the root. For reproducing worked examples
// from the paper (Figures 1 and 2 show a mid-execution tree state), for
// schedule-exploration tests, and for the treedump tool, these hooks expose
// the two phases separately: StepEnqueue/StepDequeue append to the leaf
// without propagating, and StepRefresh performs a single Refresh on a chosen
// internal node. They obey exactly the same protocol as the full operations,
// so any state reachable through them is a reachable state of the queue.

import "fmt"

// StepEnqueue appends an enqueue block for e to the handle's leaf without
// propagating it. A later StepRefresh (or any full operation by any handle)
// can propagate it. The block's position in the leaf is returned.
func (h *Handle[T]) StepEnqueue(e T) int64 {
	hd := h.readHead(h.leaf)
	prev := h.last
	b := h.newLeaf()
	b.element = e
	b.sumEnq = prev.sumEnq + 1
	b.sumDeq = prev.sumDeq
	h.storeBlock(h.leaf, hd, &b.block)
	h.last = &b.block
	h.advance(h.leaf, hd, &b.block)
	return hd
}

// StepDequeue appends a dequeue block to the handle's leaf without
// propagating it and without computing the dequeue's response. The block's
// position in the leaf is returned; StepFinishDequeue completes it.
func (h *Handle[T]) StepDequeue() int64 {
	hd := h.readHead(h.leaf)
	prev := h.last
	b := h.newHeader()
	b.sumEnq = prev.sumEnq
	b.sumDeq = prev.sumDeq + 1
	h.storeBlock(h.leaf, hd, b)
	h.last = b
	h.advance(h.leaf, hd, b)
	return hd
}

// StepFinishDequeue computes the response of the dequeue previously appended
// at position idx of the handle's leaf. The dequeue must have been
// propagated to the root (e.g. via StepRefresh calls or a full Propagate).
func (h *Handle[T]) StepFinishDequeue(idx int64) (T, bool) {
	v, _, k := h.completeDeqN(idx, 1, nil)
	return v, k > 0
}

// StepPropagate runs the standard double-Refresh propagation from the
// handle's leaf to the root, completing any pending appends.
func (h *Handle[T]) StepPropagate() {
	h.propagate(h.leaf >> 1)
}

// StepRefresh performs a single Refresh on the internal node identified by
// path: "" is the root and each 'L'/'R' character descends to a child (so
// "L" is the root's left child). It reports whether the Refresh succeeded
// (installed a block or found nothing to propagate). The handle's counter is
// charged as usual.
func (q *Queue[T]) StepRefresh(h *Handle[T], path string) (bool, error) {
	v, err := q.nodeAt(path)
	if err != nil {
		return false, err
	}
	if q.isLeaf(v) {
		return false, fmt.Errorf("core: StepRefresh target %q is a leaf", path)
	}
	return h.refresh(v), nil
}

// nodeAt resolves a path of 'L'/'R' steps from the root to a heap index.
func (q *Queue[T]) nodeAt(path string) (int, error) {
	v := rootIdx
	for i := 0; i < len(path); i++ {
		if q.isLeaf(v) {
			return 0, fmt.Errorf("core: path %q descends past a leaf", path)
		}
		switch path[i] {
		case 'L':
			v = 2 * v
		case 'R':
			v = 2*v + 1
		default:
			return 0, fmt.Errorf("core: path %q contains invalid step %q", path, path[i])
		}
	}
	return v, nil
}
