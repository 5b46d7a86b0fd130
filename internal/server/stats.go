package server

import (
	"encoding/json"
	"net/http"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/shard"
)

// serverStats are the service-level counters exported through Snapshot.
// enqueues/dequeues count operations (values), not frames: a batch frame
// carrying m values adds m.
type serverStats struct {
	sessionsTotal  atomic.Int64 // accepted connections that got a lease
	sessionsDenied atomic.Int64 // accepted connections denied for want of a handle
	reaped         atomic.Int64 // sessions closed by an idle deadline
	requests       atomic.Int64 // frames parsed off sockets
	enqueues       atomic.Int64 // values acknowledged enqueued
	dequeues       atomic.Int64 // values delivered by dequeue replies
	emptyDeqs      atomic.Int64 // StatusEmpty dequeue replies
	batches        atomic.Int64 // batch passes (one socket flush each)
	frames         atomic.Int64 // request frames answered by batch passes
	batchedOps     atomic.Int64 // queue ops executed by batch passes (batch frames count each op they carry)
	fabricBatches  atomic.Int64 // fabric calls carrying more than one op (one per run that does)
	fabricBatchOps atomic.Int64 // queue ops carried by multi-op fabric calls
}

// Stats is the service-level half of a Snapshot. Operation counters count
// queue operations (values), not wire frames: a batch frame carrying m
// values contributes m to Enqueues/Dequeues/BatchedOps and 1 to Frames, so
// BatchedOps/Frames is the wire-level amortization and
// FabricBatchOps/FabricBatches the fabric-level one.
type Stats struct {
	SessionsOpen   int     `json:"sessions_open"`
	SessionsTotal  int64   `json:"sessions_total"`
	SessionsDenied int64   `json:"sessions_denied"`
	SessionsReaped int64   `json:"sessions_reaped"`
	Requests       int64   `json:"requests"`
	Busy           int64   `json:"busy"` // always 0: the server sends no BUSY (StatusBusy is reserved)
	Enqueues       int64   `json:"enqueues"`
	Dequeues       int64   `json:"dequeues"`
	EmptyDequeues  int64   `json:"empty_dequeues"`
	Batches        int64   `json:"batches"`
	Frames         int64   `json:"frames"`           // request frames answered by batch passes
	BatchedOps     int64   `json:"batched_ops"`      // queue ops executed by batch passes
	FabricBatches  int64   `json:"fabric_batches"`   // multi-op fabric calls
	FabricBatchOps int64   `json:"fabric_batch_ops"` // queue ops carried by multi-op fabric calls
	OpsPerBatch    float64 `json:"ops_per_batch"`    // BatchedOps / Batches
	Window         int     `json:"window"`

	// Namespace counters: live queue count (default queue included) and
	// named-queue lifecycle churn.
	QueuesOpen    int   `json:"queues_open"`
	QueuesOpened  int64 `json:"queues_opened"`  // named queues created by OpOpen
	QueuesDeleted int64 `json:"queues_deleted"` // named queues removed by OpDelete
	QueuesExpired int64 `json:"queues_expired"` // named queues torn down by the idle reaper
}

// ObsStats is the server-wide observability block of a Snapshot: trace
// ring occupancy plus latency summaries per operation class aggregated
// across every live queue. In-server latency is measured per request
// frame, from its socket read to the reply write, so the frames served
// ahead of it in its window are part of the measured interval.
type ObsStats struct {
	TraceRecorded int64 `json:"trace_recorded"` // events ever added to the ring
	TraceCapacity int   `json:"trace_capacity"`

	EnqueueLat     obs.LatencySummary `json:"enqueue_lat"`
	DequeueLat     obs.LatencySummary `json:"dequeue_lat"`
	BatchLat       obs.LatencySummary `json:"batch_lat"`
	NullDequeueLat obs.LatencySummary `json:"null_dequeue_lat"`

	// Request-tracing block: spans ever captured by the exemplar reservoir
	// (see /spanz) and per-stage latency summaries over traced frames only
	// — wait (read to window admit), fabric (queue operation), reply
	// (fabric end to reply write), flush (reply write to socket flush),
	// server (the whole read-to-flush interval).
	Spans    int64                         `json:"spans"`
	StageLat map[string]obs.LatencySummary `json:"stage_lat,omitempty"`
}

// Snapshot is the stable JSON document served by /statsz and OpStats:
// service counters, the default fabric's own snapshot (per-shard routing
// traffic, registry lease churn, optional cost-model summaries), one
// entry per live queue in the namespace, and — when observability is on —
// the aggregate latency/trace block.
type Snapshot struct {
	Server Stats          `json:"server"`
	Fabric shard.Snapshot `json:"fabric"`
	Queues []QueueStat    `json:"queues"`
	Obs    *ObsStats      `json:"obs,omitempty"`
}

// Snapshot captures the server and fabric statistics.
func (srv *Server) Snapshot() Snapshot {
	st := Stats{
		SessionsOpen:   srv.sessions.count(),
		SessionsTotal:  srv.stats.sessionsTotal.Load(),
		SessionsDenied: srv.stats.sessionsDenied.Load(),
		SessionsReaped: srv.stats.reaped.Load(),
		Requests:       srv.stats.requests.Load(),
		Enqueues:       srv.stats.enqueues.Load(),
		Dequeues:       srv.stats.dequeues.Load(),
		EmptyDequeues:  srv.stats.emptyDeqs.Load(),
		Batches:        srv.stats.batches.Load(),
		Frames:         srv.stats.frames.Load(),
		BatchedOps:     srv.stats.batchedOps.Load(),
		FabricBatches:  srv.stats.fabricBatches.Load(),
		FabricBatchOps: srv.stats.fabricBatchOps.Load(),
		Window:         srv.opts.window,
		QueuesOpen:     srv.ns.count(),
		QueuesOpened:   srv.ns.opened.Load(),
		QueuesDeleted:  srv.ns.dropped.Load(),
		QueuesExpired:  srv.ns.expired.Load(),
	}
	if st.Batches > 0 {
		st.OpsPerBatch = float64(st.BatchedOps) / float64(st.Batches)
	}
	snap := Snapshot{Server: st, Fabric: srv.q.Snapshot(), Queues: srv.ns.queueStats()}
	if srv.opts.obs {
		agg := srv.ns.aggregateLat()
		stageLat := make(map[string]obs.LatencySummary, obs.NumStages)
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			stageLat[st.String()] = srv.stageHists.Summary(st)
		}
		snap.Obs = &ObsStats{
			TraceRecorded:  srv.trace.Recorded(),
			TraceCapacity:  srv.trace.Capacity(),
			EnqueueLat:     agg[obs.OpEnqueue],
			DequeueLat:     agg[obs.OpDequeue],
			BatchLat:       agg[obs.OpBatch],
			NullDequeueLat: agg[obs.OpNullDequeue],
			Spans:          srv.spans.Offered(),
			StageLat:       stageLat,
		}
	}
	return snap
}

// StatszHandler serves the Snapshot as JSON — mount it at /statsz.
func (srv *Server) StatszHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(srv.Snapshot())
	})
}
