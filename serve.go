package repro

import (
	"time"

	"repro/internal/server"
)

// QueueServer is a TCP queue service fronting a namespace of sharded
// fabrics: the default ShardedQueue[[]byte] it was started with (queue 0)
// plus any named queues clients open — each named queue its own fabric,
// created on first use and torn down when idle and empty. Each accepted
// connection leases fabric handles per (connection, queue) — the default
// queue's at accept, named queues' on first use, all returned when the
// connection closes or is idle-reaped — pipelined requests are executed in
// runs (adjacent data frames of one direction and queue become one fabric
// batch call), and overload meets TCP backpressure: a connection's one
// goroutine reads no further while it serves a window. See package
// internal/server for the wire protocol.
type QueueServer = server.Server

// QueueClient speaks the queue service's wire protocol over one TCP
// connection; it is safe for concurrent use, pipelining concurrent
// requests. Unqualified operations target the server's default queue;
// Open binds named queues on the same connection. One client holds one
// server-side handle lease per queue it touches, so a client's enqueues
// into any one queue preserve FIFO order among themselves.
type QueueClient = server.Client

// NamedRemoteQueue is a client-side binding to one named queue on a
// QueueServer, obtained with QueueClient.Open; it shares the parent
// client's connection and pipelines with it.
type NamedRemoteQueue = server.NamedQueue

// ServerQueueStat is the per-queue entry of ServerSnapshot.Queues.
type ServerQueueStat = server.QueueStat

// ServeOption configures Serve.
type ServeOption = server.Option

// ServerSnapshot is the stable JSON document served by the /statsz
// handler and QueueClient.Stats.
type ServerSnapshot = server.Snapshot

// Client-visible service errors.
var (
	// ErrServerBusy reports an operation answered BUSY (status 0x82). This
	// server never sends it — the status is reserved — so it stays only for
	// clients of servers that do.
	ErrServerBusy = server.ErrBusy
	// ErrServerQueueClosed reports an enqueue against a closed fabric.
	ErrServerQueueClosed = server.ErrClosedQueue
)

// WithServeWindow sets the per-connection window W (default 64): the most
// request frames one pass reads, executes and answers with a single
// flush. Frames past it wait in the socket for the next pass.
func WithServeWindow(w int) ServeOption { return server.WithWindow(w) }

// WithServeIdleTimeout sets how long an idle session keeps its handle
// lease before being reaped (default 2m; 0 disables reaping).
func WithServeIdleTimeout(d time.Duration) ServeOption { return server.WithIdleTimeout(d) }

// WithServeMaxFrame bounds a request frame's size, and so an enqueued
// value's size (default 1 MiB).
func WithServeMaxFrame(n int) ServeOption { return server.WithMaxFrame(n) }

// WithServeMaxQueues caps how many named queues the server holds at once
// (default 64; the default queue is not counted).
func WithServeMaxQueues(n int) ServeOption { return server.WithMaxQueues(n) }

// WithServeQueueIdleTimeout sets how long a named queue may sit with no
// bound session and no backlog before its fabric is torn down (default
// 5m; 0 disables teardown).
func WithServeQueueIdleTimeout(d time.Duration) ServeOption {
	return server.WithQueueIdleTimeout(d)
}

// WithObservability toggles the server's observability layer (default
// on): per-(queue, op) latency histograms — each request frame's
// read-to-reply in-server latency, classed as enqueue, dequeue, batch, or
// null-dequeue — plus a bounded ring of control-plane trace events
// (session and queue lifecycle), and the
// request-tracing machinery: trace-flagged frames get per-stage
// timestamps, a span in the slow-biased exemplar reservoir (/spanz), and
// per-stage latency histograms. The data surfaces
// through ServerSnapshot's obs block and per-queue latency summaries, and
// through the server's /metricsz (Prometheus text), /tracez, and /spanz
// (JSON) HTTP handlers. Recording is lock-free and allocation-free on the
// hot path for untraced frames; the measured budget (experiment T15) is
// under 3% CPU cost per operation. Off, snapshots revert to the
// pre-observability JSON shape and traced frames are answered plain.
func WithObservability(on bool) ServeOption { return server.WithObservability(on) }

// ServerObsStats is the server-wide observability block of a
// ServerSnapshot: trace-ring occupancy plus aggregate latency summaries
// per operation class and per traced-request stage. Present only when the
// server runs with WithObservability(true) (the default).
type ServerObsStats = server.ObsStats

// RequestTrace is the client-side, clock-skew-free stage decomposition of
// one traced operation (QueueClient.EnqueueTraced, DequeueTraced, and the
// NamedRemoteQueue equivalents): the round trip on the client's clock,
// the wait / fabric / reply stages on the server's clock as stamped into
// the traced reply, and the network remainder as the difference of the
// two intervals.
type RequestTrace = server.TraceStages

// Serve listens on addr and serves q over the queue service's wire
// protocol until the returned server is Closed. Pass "127.0.0.1:0" to
// bind an ephemeral loopback port (resolved via QueueServer.Addr).
func Serve(addr string, q *ShardedQueue[[]byte], opts ...ServeOption) (*QueueServer, error) {
	return server.Serve(addr, q, opts...)
}

// Dial connects a QueueClient to a queue service at addr.
func Dial(addr string) (*QueueClient, error) {
	return server.Dial(addr)
}

// DialMaxFrame is Dial with an explicit frame-size cap; match it to a
// server configured with a non-default WithServeMaxFrame.
func DialMaxFrame(addr string, maxFrame int) (*QueueClient, error) {
	return server.DialMaxFrame(addr, maxFrame)
}
