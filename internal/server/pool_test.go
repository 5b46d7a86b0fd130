package server

// Regression tests for the pooled network memory system (pool.go): a
// recycled ingress buffer must never leak one frame's payload bytes into
// a value delivered for another. The enqueue path's correctness contract
// is copy-at-admit — decodeBatchPooled values alias the pooled read
// buffer, so the executor must copy each value out before the buffer is
// recycled. If that copy ever regresses to aliasing, the bytes sitting
// in the fabric get overwritten by whatever next frame lands in the same
// size-classed buffer, and the corruption surfaces here.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/shard"
)

// patternValue builds a size-byte value whose content is a deterministic
// function of (round, idx), so any cross-frame byte leak changes it.
func patternValue(round, idx, size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte(round*31 + idx*7 + i)
	}
	return v
}

// TestPooledIngressNoCrossContamination interleaves enqueue frames that
// land in the same pool size class — each later frame reusing the buffer
// the earlier one released — then dequeues everything and verifies each
// value byte-for-byte. Sizes span the pool's size classes (small, mid,
// and a class large enough that a batch frame spills past 64 KiB), and
// both the single-op and batch decode paths are exercised; the batch
// path is the one with aliasing history (payload[:n:n] subslicing).
// Run under -race this also catches a recycled buffer still referenced
// by an in-flight delivery.
func TestPooledIngressNoCrossContamination(t *testing.T) {
	const m, rounds = 8, 12
	for _, size := range []int{16, 200, 3000, 9000} {
		for _, batch := range []bool{false, true} {
			name := fmt.Sprintf("size%d_batch%v", size, batch)
			t.Run(name, func(t *testing.T) {
				q, err := shard.New[[]byte](2)
				if err != nil {
					t.Fatal(err)
				}
				srv, err := Serve("127.0.0.1:0", q)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				c, err := Dial(srv.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()

				for round := 0; round < rounds; round++ {
					// First frame: the values under test.
					want := make([][]byte, m)
					for i := range want {
						want[i] = patternValue(round, i, size)
					}
					// Second frame: same shape, so it lands in the same
					// size class and — with the values of the first frame
					// still queued — reuses its recycled buffer. Its fill
					// is the complement pattern, so a leak is unambiguous.
					poison := make([][]byte, m)
					for i := range poison {
						p := patternValue(round, i, size)
						for j := range p {
							p[j] = ^p[j]
						}
						poison[i] = p
					}
					if batch {
						if err := c.EnqueueBatch(want); err != nil {
							t.Fatal(err)
						}
						if err := c.EnqueueBatch(poison); err != nil {
							t.Fatal(err)
						}
					} else {
						for _, v := range want {
							if err := c.Enqueue(v); err != nil {
								t.Fatal(err)
							}
						}
						for _, v := range poison {
							if err := c.Enqueue(v); err != nil {
								t.Fatal(err)
							}
						}
					}
					var got [][]byte
					for len(got) < 2*m {
						more, err := c.DequeueBatch(2*m - len(got))
						if err != nil {
							t.Fatal(err)
						}
						if len(more) == 0 {
							t.Fatalf("queue ran dry at %d of %d values", len(got), 2*m)
						}
						got = append(got, more...)
					}
					for i, g := range got {
						exp := want
						j := i
						if i >= m {
							exp, j = poison, i-m
						}
						if !bytes.Equal(g, exp[j]) {
							t.Fatalf("round %d value %d: delivered bytes diverge from enqueued (len %d vs %d): recycled ingress buffer leaked into a queued value", round, i, len(g), len(exp[j]))
						}
					}
				}
				if n, err := c.Len(); err != nil || n != 0 {
					t.Fatalf("queue not drained: len=%d err=%v", n, err)
				}
			})
		}
	}
}

// TestPooledStashOwnsBytes pins the other buffer-lifetime edge: values
// parked in a session's dequeue stash (delivered past the frame cap, or
// returned by a torn-down session) must own their bytes, not alias a
// reply or ingress buffer that has since been recycled. A tiny max-frame
// server forces every multi-value delivery through the stash; hammering
// it with fresh poison frames in between must not corrupt stashed values.
func TestPooledStashOwnsBytes(t *testing.T) {
	q, err := shard.New[[]byte](1)
	if err != nil {
		t.Fatal(err)
	}
	// Frames cap at 256 bytes: a DequeueBatch of 100-byte values can ship
	// at most two per reply, so the rest of each fabric pull is stashed.
	srv, err := Serve("127.0.0.1:0", q, WithMaxFrame(256))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialMaxFrame(srv.Addr().String(), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n, size = 24, 100
	want := make([][]byte, n)
	for i := range want {
		want[i] = patternValue(1, i, size)
		if err := c.Enqueue(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]byte, 0, n)
	poisons := 0
	for len(got) < n {
		vals, err := c.DequeueBatch(n - len(got))
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) == 0 {
			t.Fatalf("queue ran dry at %d of %d values", len(got), n)
		}
		got = append(got, vals...)
		// Between pulls — while the remainder of the last fabric pull sits
		// in the session stash — churn the ingress pool with same-class
		// poison traffic. FIFO puts it behind the wanted values, so the
		// pulls above never see it; it only recycles buffers.
		if err := c.Enqueue(patternValue(99, len(got), size)); err != nil {
			t.Fatal(err)
		}
		poisons++
	}
	for i, g := range got {
		if !bytes.Equal(g, want[i]) {
			t.Fatalf("value %d: stashed delivery corrupted by pool churn", i)
		}
	}
	for i := 0; i < poisons; i++ {
		if _, ok, err := c.Dequeue(); err != nil || !ok {
			t.Fatalf("draining poison %d: ok=%v err=%v", i, ok, err)
		}
	}
	if n, err := c.Len(); err != nil || n != 0 {
		t.Fatalf("queue not drained: len=%d err=%v", n, err)
	}
}
