package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// HTTP introspection endpoints. StatszHandler (server.go) serves the full
// JSON Snapshot; the handlers here add the operational surface around it:
// liveness (/healthz), process/build identity (/varz), Prometheus
// exposition (/metricsz), and the control-plane event trace (/tracez).
// Commands mount them all on one mux — see cmd/queued.

// HealthzHandler reports liveness: 200 with a tiny JSON body carrying the
// server's uptime. It deliberately reads no namespace or fabric state, so
// it stays cheap and cannot be wedged by the thing it is probing.
func (srv *Server) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_seconds\":%.3f}\n",
			time.Since(srv.start).Seconds())
	})
}

// VarzHandler reports process and build identity plus the server's
// configured options as JSON: what binary is this, when did it start, and
// what knobs is it running with. extra carries command-level settings
// (flag values, listen addresses) the server type cannot know; nil is
// fine.
func (srv *Server) VarzHandler(extra map[string]string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		doc := map[string]any{
			"go_version":     runtime.Version(),
			"pid":            os.Getpid(),
			"start_time":     srv.start.Format(time.RFC3339Nano),
			"uptime_seconds": time.Since(srv.start).Seconds(),
			"options": map[string]any{
				"window":        srv.opts.window,
				"max_frame":     srv.opts.maxFrame,
				"max_queues":    srv.opts.maxQueues,
				"observability": srv.opts.obs,
			},
		}
		if bi, ok := debug.ReadBuildInfo(); ok {
			doc["module"] = bi.Main.Path
			doc["module_version"] = bi.Main.Version
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					doc["vcs_revision"] = s.Value
				}
			}
		}
		if len(extra) > 0 {
			doc["flags"] = extra
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
}

// TracezHandler dumps the control-plane event ring as JSON: every queue
// and session lifecycle transition the ring still holds, in sequence
// order.
// dropped counts events already overwritten by the ring's wraparound.
// With observability off the dump is empty but well-formed.
func (srv *Server) TracezHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		events := srv.trace.Events()
		if events == nil {
			events = []obs.Event{}
		}
		recorded := srv.trace.Recorded()
		dropped := recorded - int64(len(events))
		if dropped < 0 {
			dropped = 0
		}
		doc := map[string]any{
			"recorded": recorded,
			"capacity": srv.trace.Capacity(),
			"dropped":  dropped,
			"events":   events,
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
}

// MetricszHandler serves the Prometheus text exposition (format 0.0.4):
// service counters, per-queue gauges, and — when observability is on —
// per-(queue, op) latency summaries in seconds. Metric names are
// prefixed queued_.
func (srv *Server) MetricszHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap := srv.Snapshot()
		st := snap.Server

		obs.WriteMetricHeader(w, "queued_uptime_seconds", "Seconds since the server started.", "gauge")
		obs.WriteCounter(w, "queued_uptime_seconds", "", time.Since(srv.start).Seconds())

		obs.WriteMetricHeader(w, "queued_sessions_open", "Live client sessions.", "gauge")
		obs.WriteCounter(w, "queued_sessions_open", "", st.SessionsOpen)
		obs.WriteMetricHeader(w, "queued_sessions_total", "Sessions accepted since start.", "counter")
		obs.WriteCounter(w, "queued_sessions_total", "", st.SessionsTotal)
		obs.WriteMetricHeader(w, "queued_sessions_denied_total", "Connections refused for want of a handle lease.", "counter")
		obs.WriteCounter(w, "queued_sessions_denied_total", "", st.SessionsDenied)
		obs.WriteMetricHeader(w, "queued_sessions_reaped_total", "Sessions closed by an idle deadline (no request, or replies left unread).", "counter")
		obs.WriteCounter(w, "queued_sessions_reaped_total", "", st.SessionsReaped)

		obs.WriteMetricHeader(w, "queued_requests_total", "Request frames parsed off sockets.", "counter")
		obs.WriteCounter(w, "queued_requests_total", "", st.Requests)

		obs.WriteMetricHeader(w, "queued_ops_total", "Queue operations acknowledged, by class.", "counter")
		obs.WriteCounter(w, "queued_ops_total", `op="enqueue"`, st.Enqueues)
		obs.WriteCounter(w, "queued_ops_total", `op="dequeue"`, st.Dequeues)
		obs.WriteCounter(w, "queued_ops_total", `op="null_dequeue"`, st.EmptyDequeues)

		obs.WriteMetricHeader(w, "queued_queues_open", "Live queues in the namespace (default included).", "gauge")
		obs.WriteCounter(w, "queued_queues_open", "", st.QueuesOpen)
		obs.WriteMetricHeader(w, "queued_queues_opened_total", "Named queues created by OPEN.", "counter")
		obs.WriteCounter(w, "queued_queues_opened_total", "", st.QueuesOpened)
		obs.WriteMetricHeader(w, "queued_queues_deleted_total", "Named queues removed by DELETE.", "counter")
		obs.WriteCounter(w, "queued_queues_deleted_total", "", st.QueuesDeleted)
		obs.WriteMetricHeader(w, "queued_queues_expired_total", "Named queues torn down by the idle reaper.", "counter")
		obs.WriteCounter(w, "queued_queues_expired_total", "", st.QueuesExpired)

		obs.WriteMetricHeader(w, "queued_queue_len", "Fabric backlog estimate per queue.", "gauge")
		for _, q := range snap.Queues {
			obs.WriteCounter(w, "queued_queue_len", queueLabel(q.Name), q.Len)
		}
		obs.WriteMetricHeader(w, "queued_queue_shards", "Shard count per queue.", "gauge")
		for _, q := range snap.Queues {
			obs.WriteCounter(w, "queued_queue_shards", queueLabel(q.Name), q.Shards)
		}

		if snap.Obs != nil {
			obs.WriteMetricHeader(w, "queued_trace_events_total", "Control-plane events recorded in the trace ring.", "counter")
			obs.WriteCounter(w, "queued_trace_events_total", "", snap.Obs.TraceRecorded)

			obs.WriteMetricHeader(w, "queued_spans_total", "Traced request spans captured by the exemplar reservoir.", "counter")
			obs.WriteCounter(w, "queued_spans_total", "", snap.Obs.Spans)

			obs.WriteMetricHeader(w, "queued_stage_latency_seconds",
				"Per-stage latency of traced requests (wait: read to admit; fabric: the queue op; reply: fabric end to reply write; flush: reply write to socket flush; server: read to flush).", "summary")
			for st := obs.Stage(0); st < obs.NumStages; st++ {
				if s, ok := snap.Obs.StageLat[st.String()]; ok {
					obs.WriteSummary(w, "queued_stage_latency_seconds",
						fmt.Sprintf(`stage="%s"`, st), s)
				}
			}

			obs.WriteMetricHeader(w, "queued_op_latency_seconds",
				"In-server request latency (read to reply), per queue and op class.", "summary")
			for _, q := range snap.Queues {
				for _, col := range []struct {
					op string
					s  *obs.LatencySummary
				}{
					{"enqueue", q.EnqueueLat},
					{"dequeue", q.DequeueLat},
					{"batch", q.BatchLat},
					{"null_dequeue", q.NullDequeueLat},
				} {
					if col.s == nil {
						continue
					}
					labels := fmt.Sprintf(`queue="%s",op="%s"`, obs.EscapeLabel(q.Name), col.op)
					obs.WriteSummary(w, "queued_op_latency_seconds", labels, *col.s)
				}
			}
		}
	})
}

// queueLabel renders the shared per-queue label set.
func queueLabel(name string) string {
	return fmt.Sprintf(`queue="%s"`, obs.EscapeLabel(name))
}

// SpanzHandler dumps the request-trace exemplar reservoir as JSON: the
// slowest traced spans the server has seen (slowest first — the exemplars
// worth explaining) and the most recent ones (sequence order — what a
// typical traced request looks like right now), each decomposed into
// per-stage millisecond durations. offered counts spans ever captured;
// with observability off the dump is empty but well-formed.
func (srv *Server) SpanzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		recent, slow := srv.spans.Snapshot()
		views := func(spans []obs.Span) []obs.SpanView {
			out := make([]obs.SpanView, len(spans))
			for i := range spans {
				out[i] = spans[i].View()
			}
			return out
		}
		doc := map[string]any{
			"offered":         srv.spans.Offered(),
			"recent_capacity": srv.spans.RecentCapacity(),
			"slow_capacity":   srv.spans.SlowCapacity(),
			"slow":            views(slow),
			"recent":          views(recent),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
}
