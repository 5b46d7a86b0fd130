package server

import (
	"testing"
	"time"

	"repro/internal/stats"
)

func TestRunLoadConfigValidation(t *testing.T) {
	if _, err := RunLoad("127.0.0.1:1", LoadConfig{Rate: 0, Duration: time.Second}); err == nil {
		t.Error("Rate 0 accepted")
	}
	if _, err := RunLoad("127.0.0.1:1", LoadConfig{Rate: 100}); err == nil {
		t.Error("Duration 0 accepted")
	}
}

func TestOpenLoopConservation(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	cfg := LoadConfig{
		Rate:         4000,
		Duration:     300 * time.Millisecond,
		Producers:    2,
		Consumers:    2,
		ValueSize:    64,
		Window:       16,
		DrainTimeout: 5 * time.Second,
	}
	res, err := RunLoad(srv.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || res.Acked == 0 {
		t.Fatalf("no load offered: %+v", res)
	}
	if !res.Conserved() {
		t.Fatalf("conservation violated: lost=%d dup=%d", res.Lost, res.Dup)
	}
	if res.Foreign != 0 {
		t.Errorf("foreign values on a fresh fabric: %d", res.Foreign)
	}
	if res.Consumed != res.Acked {
		t.Errorf("consumed %d != acked %d", res.Consumed, res.Acked)
	}
	if len(res.EnqLatMs) != int(res.Acked) {
		t.Errorf("%d enqueue latencies for %d acks", len(res.EnqLatMs), res.Acked)
	}
	if len(res.E2ELatMs) != int(res.Acked) {
		t.Errorf("%d e2e latencies for %d acks", len(res.E2ELatMs), res.Acked)
	}
	p50 := stats.Percentile(res.E2ELatMs, 50)
	p99 := stats.Percentile(res.E2ELatMs, 99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("implausible latency percentiles p50=%v p99=%v", p50, p99)
	}
	if res.AchievedRate() <= 0 {
		t.Errorf("achieved rate %v", res.AchievedRate())
	}
}

// TestOpenLoopBackpressure overloads a deliberately tiny server window: one
// frame per pass, against a producer pipelining 64. The excess waits in the
// socket, so nothing is refused — every offered enqueue is acknowledged —
// and the run conserves every value.
func TestOpenLoopBackpressure(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil, WithWindow(1))
	cfg := LoadConfig{
		Rate:         20000,
		Duration:     200 * time.Millisecond,
		Producers:    1,
		Consumers:    1,
		Window:       64,
		DrainTimeout: 5 * time.Second,
	}
	res, err := RunLoad(srv.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatalf("conservation violated under backpressure: lost=%d dup=%d", res.Lost, res.Dup)
	}
	if res.Errors != 0 || res.Acked != res.Offered {
		t.Errorf("window-1 server refused enqueues: offered %d, acked %d, errors %d", res.Offered, res.Acked, res.Errors)
	}
}

// TestOpenLoopNamedQueues runs two concurrent loads against two named
// queues on one server and requires exact per-queue conservation with
// zero cross-queue traffic. The default queue must stay empty throughout.
func TestOpenLoopNamedQueues(t *testing.T) {
	srv, q := newTestServer(t, 2, nil)
	base := LoadConfig{
		Rate:         2000,
		Duration:     300 * time.Millisecond,
		Producers:    1,
		Consumers:    1,
		DrainTimeout: 5 * time.Second,
	}
	type out struct {
		res *LoadResult
		err error
	}
	outs := make(chan out, 2)
	for _, name := range []string{"tenant-a", "tenant-b"} {
		cfg := base
		cfg.Queue = name
		go func() {
			res, err := RunLoad(srv.Addr().String(), cfg)
			outs <- out{res, err}
		}()
	}
	for i := 0; i < 2; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Acked == 0 {
			t.Fatalf("tenant %q: nothing acknowledged", o.res.Config.Queue)
		}
		if !o.res.Conserved() {
			t.Fatalf("tenant %q: lost=%d dup=%d", o.res.Config.Queue, o.res.Lost, o.res.Dup)
		}
		if o.res.Foreign != 0 {
			t.Errorf("tenant %q: %d foreign values crossed queues", o.res.Config.Queue, o.res.Foreign)
		}
	}
	if n := q.Len(); n != 0 {
		t.Errorf("default queue picked up %d values from named-queue runs", n)
	}
}

// TestOpenLoopForeignBacklog plants values from "a previous run" before
// the load starts: the run must report them Foreign and still certify
// conservation for its own values.
func TestOpenLoopForeignBacklog(t *testing.T) {
	srv, q := newTestServer(t, 1, nil)
	h, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	const leftovers = 40
	stale := make([]byte, MinValueSize) // plausible key/nonce from another run
	for i := 0; i < leftovers; i++ {
		if err := h.Enqueue(stale); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Enqueue([]byte("runt")); err != nil { // malformed short value
		t.Fatal(err)
	}
	h.Release()

	res, err := RunLoad(srv.Addr().String(), LoadConfig{
		Rate:         2000,
		Duration:     200 * time.Millisecond,
		Producers:    1,
		Consumers:    1,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatalf("foreign backlog broke conservation: lost=%d dup=%d", res.Lost, res.Dup)
	}
	if res.Foreign != leftovers+1 {
		t.Errorf("Foreign = %d, want %d", res.Foreign, leftovers+1)
	}
	if res.Consumed != res.Acked+leftovers+1 {
		t.Errorf("Consumed = %d, want acked %d + foreign %d", res.Consumed, res.Acked, leftovers+1)
	}
}
