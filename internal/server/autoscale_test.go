package server

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestWireResize covers the manual RESIZE path: default queue, named
// queue, bound clamping, and unknown-queue failure.
func TestWireResize(t *testing.T) {
	srv, q := newTestServer(t, 2, nil, WithShardBounds(1, 8))
	c := newTestClient(t, srv)

	// Named queue first: the default factory clones the default queue's
	// shape at creation time, so this fabric starts at 2 shards.
	nq, err := c.Open("elastic")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := nq.Resize(3); err != nil || got != 3 {
		t.Fatalf("NamedQueue.Resize(3) = (%d, %v), want (3, nil)", got, err)
	}
	// Enqueue across the next resize: data must survive the topology swap.
	for i := 0; i < 20; i++ {
		if err := nq.Enqueue([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := nq.Resize(1); err != nil || got != 1 {
		t.Fatalf("NamedQueue.Resize(1) = (%d, %v), want (1, nil)", got, err)
	}
	for i := 0; i < 20; i++ {
		v, ok, err := nq.Dequeue()
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("dequeue %d after shrink = (%v, %v, %v)", i, v, ok, err)
		}
	}

	got, err := c.Resize(4)
	if err != nil || got != 4 {
		t.Fatalf("Resize(4) = (%d, %v), want (4, nil)", got, err)
	}
	if q.Shards() != 4 {
		t.Fatalf("default fabric has %d shards after wire resize, want 4", q.Shards())
	}
	// Beyond the bounds: clamped, not refused.
	if got, err = c.Resize(100); err != nil || got != 8 {
		t.Fatalf("Resize(100) = (%d, %v), want clamped (8, nil)", got, err)
	}

	// The per-queue stats must report the resize history.
	data, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	var st QueueStat
	for _, qs := range snap.Queues {
		if qs.Name == "elastic" {
			st = qs
		}
	}
	if st.Shards != 1 || st.Epoch != 3 || st.Grows != 1 || st.Shrinks != 1 {
		t.Fatalf("elastic queue stats = %+v, want 1 shard at epoch 3 after 1 grow + 1 shrink", st)
	}
	if snap.Server.WireResizes != 4 {
		t.Fatalf("WireResizes = %d, want 4", snap.Server.WireResizes)
	}

	if err := c.Delete("elastic"); err != nil {
		t.Fatal(err)
	}
	if _, err := nq.Resize(2); err == nil {
		t.Fatal("Resize against a deleted queue id succeeded")
	}
}

// TestAutoscaleGrowShrink drives the autoscaler through a full cycle:
// sustained load grows the default queue's fabric toward the upper bound,
// and going idle shrinks it back to the lower bound — all while a
// conservation check rides along (every enqueued value dequeued exactly
// once, in producer order, across every autoscaler-initiated migration).
func TestAutoscaleGrowShrink(t *testing.T) {
	srv, q := newTestServer(t, 1, nil,
		WithAutoscale(20*time.Millisecond),
		WithShardBounds(1, 4),
		WithAutoscaleWatermarks(50, 400))
	c := newTestClient(t, srv)

	awaitShards := func(want int, during func() error) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for q.Shards() != want {
			if time.Now().After(deadline) {
				t.Fatalf("fabric stuck at %d shards, want %d", q.Shards(), want)
			}
			if during != nil {
				if err := during(); err != nil {
					t.Fatal(err)
				}
			} else {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	seq, next := 0, 0
	burst := func() error { // well above 400 ops/s/shard while it runs
		for i := 0; i < 64; i++ {
			if err := c.Enqueue([]byte(fmt.Sprintf("%08d", seq))); err != nil {
				return err
			}
			seq++
			v, ok, err := c.Dequeue()
			if err != nil {
				return err
			}
			if ok {
				if got := string(v); got != fmt.Sprintf("%08d", next) {
					return fmt.Errorf("dequeued %q, want seq %08d (FIFO broken across autoscale)", got, next)
				}
				next++
			}
		}
		return nil
	}
	awaitShards(4, burst)

	// Null dequeues at a trickle rate: capacity is provably idle, so the
	// scaler must halve its way back to the lower bound.
	awaitShards(1, func() error {
		_, _, err := c.Dequeue()
		time.Sleep(2 * time.Millisecond)
		return err
	})

	// Drain the remainder: conservation and order must have survived the
	// grow and every shrink migration.
	for next < seq {
		v, ok, err := c.Dequeue()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		if got := string(v); got != fmt.Sprintf("%08d", next) {
			t.Fatalf("dequeued %q, want seq %08d", got, next)
		}
		next++
	}

	// Shards() reads the new k as soon as a topology is installed, but the
	// scaler counts a resize only once Resize has returned (after the
	// migration), so the last shrink's tally may still be in flight.
	for deadline := time.Now().Add(2 * time.Second); srv.Snapshot().Server.AutoscaleShrinks < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	snap := srv.Snapshot()
	if snap.Server.AutoscaleGrows < 2 || snap.Server.AutoscaleShrinks < 2 {
		t.Errorf("autoscaler counters = %d grows / %d shrinks, want >= 2 each (1 -> 4 -> 1 by doubling/halving)",
			snap.Server.AutoscaleGrows, snap.Server.AutoscaleShrinks)
	}
	if snap.Fabric.Resize.Epoch < 5 {
		t.Errorf("fabric epoch = %d, want >= 5 after a 1->2->4->2->1 cycle", snap.Fabric.Resize.Epoch)
	}
}

// TestAutoscaleBoundsClamp: a queue that starts outside the configured
// shard envelope is pulled inside it unconditionally, without waiting for
// the load-signal arms to fire.
func TestAutoscaleBoundsClamp(t *testing.T) {
	_, q := newTestServer(t, 6, nil,
		WithAutoscale(15*time.Millisecond),
		WithShardBounds(1, 2))
	deadline := time.Now().Add(10 * time.Second)
	for q.Shards() > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue stuck at %d shards, want <= 2 (bounds clamp never fired)", q.Shards())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAutoscaleValidation pins the option validation.
func TestAutoscaleValidation(t *testing.T) {
	q, err := shard.New[[]byte](2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Serve("127.0.0.1:0", q, WithShardBounds(0, 4)); err == nil {
		t.Error("Serve accepted min shards 0")
	}
	if _, err := Serve("127.0.0.1:0", q, WithShardBounds(4, 2)); err == nil {
		t.Error("Serve accepted max < min shard bounds")
	}
	if _, err := Serve("127.0.0.1:0", q, WithAutoscale(time.Second),
		WithAutoscaleWatermarks(500, 100)); err == nil {
		t.Error("Serve accepted high watermark below low")
	}
}
