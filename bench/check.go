//go:build linux

package main

import (
	"fmt"
	"math/bits"
)

// A value's id names the producer that enqueued it and its place in that
// producer's sequence. A producer is whatever enqueues values one after
// another through one handle: a worker goroutine, a leased fabric handle,
// or one caller of a Client.
const seqBits = 48

func makeID(producer int, seq uint64) uint64 { return uint64(producer)<<seqBits | seq }

func splitID(id uint64) (producer int, seq uint64) {
	return int(id >> seqBits), id & (1<<seqBits - 1)
}

// verdict is what checkDelivery found.
type verdict struct {
	lost, dup, reordered, unknown int64
}

func (v verdict) ok() bool { return v == verdict{} }

func (v verdict) String() string {
	return fmt.Sprintf("lost=%d dup=%d reordered=%d unknown=%d", v.lost, v.dup, v.reordered, v.unknown)
}

func (v *verdict) add(o verdict) {
	v.lost += o.lost
	v.dup += o.dup
	v.reordered += o.reordered
	v.unknown += o.unknown
}

// checkDelivery checks conservation and order. sent[p] is how many values
// producer p had acknowledged (sequence numbers 0..sent[p]-1); each log is
// the ids one consumer received, in the order its own sequential dequeue
// calls returned them. Conservation: every sent value appears exactly once
// across all logs, and nothing else appears. Order: within one log, one
// producer's values appear in the order it enqueued them — with a single
// consumer that is per-producer FIFO, and with several it is the part of
// FIFO that survives not knowing how the consumers interleaved.
func checkDelivery(sent []uint64, logs ...[]uint64) verdict {
	var v verdict
	seen := make([][]uint64, len(sent)) // one bit per sequence number
	for p, n := range sent {
		seen[p] = make([]uint64, (n+63)/64)
	}
	last := make([]int64, len(sent))
	for _, log := range logs {
		for p := range last {
			last[p] = -1
		}
		for _, id := range log {
			p, seq := splitID(id)
			if p >= len(sent) || seq >= sent[p] {
				v.unknown++
				continue
			}
			word, bit := seq/64, uint64(1)<<(seq%64)
			if seen[p][word]&bit != 0 {
				v.dup++
				continue
			}
			seen[p][word] |= bit
			if int64(seq) < last[p] {
				v.reordered++
			}
			last[p] = int64(seq)
		}
	}
	for p, n := range sent {
		var got uint64
		for _, w := range seen[p] {
			got += uint64(bits.OnesCount64(w))
		}
		v.lost += int64(n - got)
	}
	return v
}
