package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSnapshotObsBlock drives traffic through every op class and checks
// that the Snapshot's obs block and per-queue latency summaries account
// for it: present, counted, and round-trippable through the JSON the
// endpoints serve.
func TestSnapshotObsBlock(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)

	for i := 0; i < 10; i++ {
		if err := c.Enqueue([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, ok, err := c.Dequeue(); err != nil || !ok {
			t.Fatalf("Dequeue %d = (ok=%v, err=%v)", i, ok, err)
		}
	}
	if _, ok, err := c.Dequeue(); err != nil || ok {
		t.Fatalf("empty Dequeue = (ok=%v, err=%v)", ok, err)
	}

	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("Snapshot JSON: %v\n%s", err, raw)
	}
	if snap.Obs == nil {
		t.Fatal("Snapshot.Obs missing with observability on")
	}
	if snap.Obs.EnqueueLat.Count != 10 {
		t.Errorf("aggregate enqueue count = %d, want 10", snap.Obs.EnqueueLat.Count)
	}
	if snap.Obs.DequeueLat.Count != 10 {
		t.Errorf("aggregate dequeue count = %d, want 10", snap.Obs.DequeueLat.Count)
	}
	if snap.Obs.NullDequeueLat.Count != 1 {
		t.Errorf("aggregate null-dequeue count = %d, want 1", snap.Obs.NullDequeueLat.Count)
	}
	if s := snap.Obs.EnqueueLat; s.P50Ms < 0 || s.P50Ms > s.P99Ms || s.P99Ms > s.MaxMs || s.MaxMs <= 0 {
		t.Errorf("implausible enqueue ladder: %+v", s)
	}
	if len(snap.Queues) == 0 || snap.Queues[0].EnqueueLat == nil {
		t.Fatalf("default queue missing enqueue_lat: %+v", snap.Queues)
	}
	if snap.Queues[0].EnqueueLat.Count != 10 {
		t.Errorf("queue enqueue count = %d, want 10", snap.Queues[0].EnqueueLat.Count)
	}
	if snap.Obs.TraceCapacity == 0 || snap.Obs.TraceRecorded == 0 {
		t.Errorf("trace ring not recording: %+v", snap.Obs)
	}
}

// TestObservabilityOffRevertsShape checks the obs-off server: no obs
// block, no per-queue summaries, no trace events — the exact
// pre-observability JSON shape.
func TestObservabilityOffRevertsShape(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil, WithObservability(false))
	c := newTestClient(t, srv)
	if err := c.Enqueue([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Dequeue(); err != nil || !ok {
		t.Fatal(ok, err)
	}

	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if _, present := doc["obs"]; present {
		t.Error("obs block present with observability off")
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Queues[0].EnqueueLat != nil {
		t.Error("per-queue latency summary present with observability off")
	}

	rec := httptest.NewRecorder()
	srv.TracezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	var trace struct {
		Recorded int64       `json:"recorded"`
		Events   []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trace); err != nil {
		t.Fatalf("tracez JSON: %v\n%s", err, rec.Body.String())
	}
	if trace.Recorded != 0 || len(trace.Events) != 0 {
		t.Errorf("tracez recorded events with observability off: %+v", trace)
	}
}

// TestTracezEvents checks that session and queue lifecycle land in the
// trace ring and come back through the handler in sequence order.
func TestTracezEvents(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)
	if _, err := c.Open("jobs"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// finishSession runs on the session's goroutine after Close; wait for the
	// session_close event rather than sleeping a fixed interval.
	deadline := time.Now().Add(2 * time.Second)
	types := map[string]int{}
	for {
		types = map[string]int{}
		for _, ev := range srv.trace.Events() {
			types[ev.Type]++
		}
		if types["session_close"] > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if types["session_open"] == 0 {
		t.Errorf("no session_open event: %v", types)
	}
	if types["queue_create"] == 0 {
		t.Errorf("no queue_create event: %v", types)
	}
	if types["session_close"] == 0 {
		t.Errorf("no session_close event: %v", types)
	}

	rec := httptest.NewRecorder()
	srv.TracezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("tracez Content-Type = %q", ct)
	}
	var trace struct {
		Recorded int64       `json:"recorded"`
		Capacity int         `json:"capacity"`
		Events   []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	if trace.Capacity != traceRingCap || trace.Recorded == 0 {
		t.Errorf("tracez header = %+v", trace)
	}
	for i := 1; i < len(trace.Events); i++ {
		if trace.Events[i].Seq <= trace.Events[i-1].Seq {
			t.Fatalf("events out of order at %d: %+v", i, trace.Events)
		}
	}
}

// TestMetricszExposition checks the Prometheus text rendering: the content
// type, core series, and per-(queue, op) summary quantiles.
func TestMetricszExposition(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)
	for i := 0; i < 5; i++ {
		if err := c.Enqueue([]byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	srv.MetricszHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metricsz Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE queued_requests_total counter",
		"queued_sessions_open 1",
		`queued_ops_total{op="enqueue"} 5`,
		`queued_queue_shards{queue="default"} 2`,
		"# TYPE queued_op_latency_seconds summary",
		`queued_op_latency_seconds{queue="default",op="enqueue",quantile="0.5"}`,
		`queued_op_latency_seconds_count{queue="default",op="enqueue"} 5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q\n%s", want, body)
		}
	}
}

// TestHealthzAndVarz checks the liveness and identity endpoints.
func TestHealthzAndVarz(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)

	rec := httptest.NewRecorder()
	srv.HealthzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	var health struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, rec.Body.String())
	}
	if health.Status != "ok" || health.UptimeSeconds < 0 {
		t.Errorf("healthz = %+v", health)
	}

	rec = httptest.NewRecorder()
	srv.VarzHandler(map[string]string{"backend": "core"}).
		ServeHTTP(rec, httptest.NewRequest("GET", "/varz", nil))
	var varz struct {
		GoVersion string `json:"go_version"`
		Pid       int    `json:"pid"`
		Options   struct {
			Window        int  `json:"window"`
			Observability bool `json:"observability"`
		} `json:"options"`
		Flags map[string]string `json:"flags"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &varz); err != nil {
		t.Fatalf("varz JSON: %v\n%s", err, rec.Body.String())
	}
	if varz.GoVersion == "" || varz.Pid == 0 || varz.Options.Window != 64 || !varz.Options.Observability {
		t.Errorf("varz = %+v", varz)
	}
	if varz.Flags["backend"] != "core" {
		t.Errorf("varz flags = %+v", varz.Flags)
	}
}
