package core

// Fuzz target for batch dequeue responses. Under plain `go test` it runs the
// checked-in corpus in testdata/fuzz/FuzzBatchResponses; under
// `go test -fuzz=FuzzBatchResponses` it explores the script space. The
// oracle is a slice FIFO: the script runs on one goroutine, so the queue
// must answer exactly as the slice does.

import (
	"slices"
	"testing"
)

// FuzzBatchResponses interprets data as a script over 1-4 handles. data[0]
// picks the handle count (1+data[0]%4), data[1] the root search (odd: the
// plain binary search of WithPlainRootSearch, even: the search from the
// handle's hint, with the paper's doubling search behind it); then each
// pair (op, arg) runs on handle (op/3)%procs:
//
//	op%3 == 0: Enqueue of one value
//	op%3 == 1: EnqueueBatch of 1+arg%40 values
//	op%3 == 2: DequeueBatchAppend of n = 1+arg%100
//
// Every dequeue batch must return the model's first min(n, len) values and
// that count, so a short count (the null suffix) is checked too. The corpus
// covers batches spanning several leaf blocks of different leaves, batches
// starting and ending mid-block, batches running past the queue's end,
// dequeues on an empty queue, and two handles whose dequeues alternate
// across root blocks, so each one's root-search hint goes stale.
func FuzzBatchResponses(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		procs := 1 + int(data[0]%4)
		var opts []Option
		if data[1]%2 == 1 {
			opts = append(opts, WithPlainRootSearch())
		}
		q, err := New[int](procs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var model, dst []int
		next := 0
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := int(data[i]), int(data[i+1])
			h := q.MustHandle(op / 3 % procs)
			switch op % 3 {
			case 0:
				h.Enqueue(next)
				model = append(model, next)
				next++
			case 1:
				es := make([]int, 1+arg%40)
				for j := range es {
					es[j] = next
					next++
				}
				h.EnqueueBatch(es)
				model = append(model, es...)
			case 2:
				n := 1 + arg%100
				var got int
				dst, got = h.DequeueBatchAppend(dst[:0], n)
				want := model[:min(n, len(model))]
				if got != len(want) || !slices.Equal(dst, want) {
					t.Fatalf("step %d: DequeueBatchAppend(%d) on handle %d = %d values %v, want %d values %v",
						i/2, n, op/3%procs, got, dst, len(want), want)
				}
				model = model[len(want):]
			}
		}
		// Drain: whatever the script left must come out in model order.
		h := q.MustHandle(0)
		var got int
		dst, got = h.DequeueBatchAppend(dst[:0], len(model)+1)
		if got != len(model) || !slices.Equal(dst, model) {
			t.Fatalf("drain: %d values %v, want %d values %v", got, dst, len(model), model)
		}
	})
}
