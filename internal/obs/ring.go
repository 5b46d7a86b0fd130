package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Event is one structured control-plane occurrence: a session or queue
// lifecycle transition, a sampled backpressure burst.
// The encoding is the stable JSON served by /tracez.
type Event struct {
	Seq   uint64         `json:"seq"`
	Time  time.Time      `json:"time"`
	Type  string         `json:"type"`
	Queue string         `json:"queue,omitempty"`
	Data  map[string]any `json:"data,omitempty"`
}

// Ring is a bounded, lock-free ring of control-plane events: writers
// reserve a slot with one atomic add and publish the event with one
// atomic pointer store, so tracing never blocks the path that emits the
// event. When the ring wraps, the oldest events are overwritten — the
// ring answers "what did the control plane do recently", not "ever".
//
// Control-plane events are rare next to data operations; a hot source
// would have to be sampled by its emitter before it reached the ring.
type Ring struct {
	slots []atomic.Pointer[Event]
	seq   atomic.Uint64 // next sequence number == events recorded
}

// NewRing returns a ring holding the last n events (n is floored at 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{slots: make([]atomic.Pointer[Event], n)}
}

// Add records one event. A nil ring (tracing disabled) is a no-op, so
// call sites need no guard. data is retained; pass a fresh map.
func (r *Ring) Add(typ, queue string, data map[string]any) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1) - 1
	ev := &Event{Seq: seq, Time: time.Now(), Type: typ, Queue: queue, Data: data}
	r.slots[seq%uint64(len(r.slots))].Store(ev)
}

// Recorded returns how many events have ever been added.
func (r *Ring) Recorded() int64 {
	if r == nil {
		return 0
	}
	return int64(r.seq.Load())
}

// Capacity returns the ring size.
func (r *Ring) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Events snapshots the ring's current contents in sequence order. A
// concurrent Add may overwrite a slot mid-walk; each slot read is atomic,
// so the result is always a set of complete events, sorted by Seq.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
