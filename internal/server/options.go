package server

import (
	"fmt"
	"time"

	"repro/internal/shard"
)

// Option configures Serve.
type Option func(*options)

type options struct {
	window      int
	idleTimeout time.Duration
	maxFrame    int
	maxQueues   int
	queueIdle   time.Duration
	factory     func() (*shard.Queue[[]byte], error)

	obs bool // per-(queue, op) latency histograms + control-plane trace ring
}

// WithWindow sets the per-connection window W (default 64): the most
// request frames one pass reads, executes and answers with a single socket
// flush, and so the most a connection holds read but unanswered. The pass
// takes only frames that have begun to arrive in its read buffer; the rest
// wait in the socket, where a peer that keeps sending meets TCP
// backpressure.
func WithWindow(w int) Option {
	return func(o *options) { o.window = w }
}

// WithIdleTimeout sets how long a session may go without sending a frame,
// or leave its replies unread, before it is closed and its handle leases
// recycled (default 2m; 0 disables reaping). It is a connection deadline,
// moved forward only once less than d is left, so a session is reaped
// between d and 1.5×d after its last frame or its last reply taken.
func WithIdleTimeout(d time.Duration) Option {
	return func(o *options) { o.idleTimeout = d }
}

// WithMaxFrame bounds the size of a single request frame, and so of an
// enqueued value (default DefaultMaxFrame).
func WithMaxFrame(n int) Option {
	return func(o *options) { o.maxFrame = n }
}

// WithMaxQueues caps how many named queues the server will hold at once
// (default DefaultMaxQueues; the default queue 0 is not counted). An
// OpOpen beyond the cap is answered StatusErr.
func WithMaxQueues(n int) Option {
	return func(o *options) { o.maxQueues = n }
}

// WithQueueIdleTimeout sets how long a named queue may sit with no bound
// session — and no backlog — before its fabric is torn down (default 5m;
// 0 disables teardown). A torn-down name is recreated fresh on the next
// OpOpen.
func WithQueueIdleTimeout(d time.Duration) Option {
	return func(o *options) { o.queueIdle = d }
}

// WithQueueFactory overrides how named queues' fabrics are built. The
// default clones the default queue's shape: same shard count, backend,
// and handle-slot count.
func WithQueueFactory(f func() (*shard.Queue[[]byte], error)) Option {
	return func(o *options) { o.factory = f }
}

// WithObservability toggles the server's observability layer (default
// on): per-(queue, op) latency histograms recorded on the hot path —
// each request frame's read-to-reply in-server latency, bucketed as
// enqueue / dequeue / batch / null-dequeue — the bounded control-plane
// event trace served by /tracez, and request tracing (per-stage
// timestamps, the span exemplar reservoir served by /spanz, and the
// per-stage histograms) for frames a client flags with OpTraceFlag. Off,
// frames are not stamped with their read time, no histogram is touched,
// traced requests are served normally but answered plain (the client
// reads that as "server declined to sample"), and Snapshot reverts to the
// pre-observability shape; the /healthz, /varz, and /metricsz endpoints
// keep working (exposing counters only).
func WithObservability(on bool) Option {
	return func(o *options) { o.obs = on }
}

// DefaultMaxQueues is the default cap on named queues per server.
const DefaultMaxQueues = 64

// resolveOptions applies opts over the defaults and validates the result.
// q is the default queue, whose shape named queues inherit unless a
// factory overrides it.
func resolveOptions(q *shard.Queue[[]byte], opts []Option) (options, error) {
	o := options{
		window:      64,
		idleTimeout: 2 * time.Minute,
		maxFrame:    DefaultMaxFrame,
		maxQueues:   DefaultMaxQueues,
		queueIdle:   5 * time.Minute,
		obs:         true,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.window < 1 {
		return o, fmt.Errorf("server: window must be at least 1 (got %d)", o.window)
	}
	if o.maxFrame < frameHeader {
		return o, fmt.Errorf("server: max frame %d below header size", o.maxFrame)
	}
	if o.maxQueues < 0 {
		return o, fmt.Errorf("server: max queues must not be negative (got %d)", o.maxQueues)
	}
	if o.factory == nil {
		// Named queues inherit the default fabric's shape. Each named queue
		// is its own ShardedQueue, so its guarantees are per-queue exact.
		o.factory = func() (*shard.Queue[[]byte], error) {
			return shard.New[[]byte](q.Shards(),
				shard.WithBackend(q.Backend()),
				shard.WithMaxHandles(q.MaxHandles()))
		}
	}
	return o, nil
}
