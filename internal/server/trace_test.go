package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// waitSpans blocks until the server has published n spans. Spans are priced
// after their window's flush by design — the flush stamp closes the last
// stage — so a client can hold its traced reply a moment before the span
// is visible; a test that reads the reservoir or the stage histograms
// right after a traced call must wait for the counter, not assume it.
func waitSpans(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.spans.Offered() < n {
		if time.Now().After(deadline) {
			t.Fatalf("spans = %d, want %d within 5s", srv.spans.Offered(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTracedEnqueueDequeue exercises the full trace loop against an
// obs-on server: the traced calls must behave exactly like their plain
// counterparts (values move) while returning a server-sampled stage
// decomposition whose arithmetic holds.
func TestTracedEnqueueDequeue(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)

	st, err := c.EnqueueTraced([]byte("traced-value"))
	if err != nil {
		t.Fatal(err)
	}
	if !st.ServerSampled {
		t.Fatal("obs-on server did not sample the traced enqueue")
	}
	if st.Op != "enqueue" {
		t.Errorf("Op = %q, want enqueue", st.Op)
	}
	if st.RTTMs <= 0 {
		t.Errorf("RTTMs = %v, want > 0", st.RTTMs)
	}
	for name, v := range map[string]float64{
		"wait": st.WaitMs, "fabric": st.FabricMs, "reply": st.ReplyMs,
		"server": st.ServerMs, "net": st.NetMs,
	} {
		if v < 0 {
			t.Errorf("%s stage = %v ms, negative", name, v)
		}
	}
	// The three interior stages partition a subinterval of the server
	// window, so their sum cannot exceed it (tiny epsilon for float noise).
	if sum := st.WaitMs + st.FabricMs + st.ReplyMs; sum > st.ServerMs+1e-6 {
		t.Errorf("stage sum %.6f exceeds server window %.6f", sum, st.ServerMs)
	}

	v, ok, dst, err := c.DequeueTraced()
	if err != nil || !ok {
		t.Fatalf("DequeueTraced = (ok=%v, err=%v)", ok, err)
	}
	if string(v) != "traced-value" {
		t.Fatalf("traced dequeue returned %q", v)
	}
	if !dst.ServerSampled || dst.Op != "dequeue" {
		t.Errorf("dequeue stages = %+v", dst)
	}

	// An empty traced poll is a traced null-dequeue: stages still valid,
	// latency classed with the server's null_dequeue histogram.
	_, ok, nst, err := c.DequeueTraced()
	if err != nil || ok {
		t.Fatalf("empty DequeueTraced = (ok=%v, err=%v)", ok, err)
	}
	if !nst.ServerSampled || nst.Op != "null_dequeue" {
		t.Errorf("null-dequeue stages = %+v", nst)
	}
}

// TestTracedOnNamedQueue checks tracing composes with queue
// qualification: both flag bits set, both prefixes present, and the span
// lands attributed to the named queue.
func TestTracedOnNamedQueue(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)
	q, err := c.Open("jobs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTraced([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _, err := q.DequeueTraced(); err != nil || !ok {
		t.Fatalf("named DequeueTraced = (ok=%v, err=%v)", ok, err)
	}
	waitSpans(t, srv, 2)
	_, slow := srv.spans.Snapshot()
	if len(slow) == 0 {
		t.Fatal("no spans captured")
	}
	found := false
	for _, sp := range slow {
		found = found || sp.Queue == "jobs"
	}
	if !found {
		t.Errorf("no span attributed to the named queue: %+v", slow)
	}
}

// TestTracedOnObsOffServer checks graceful degradation: a traced frame
// against an observability-off server is served normally — the value
// moves — and answered plain, so the client reports the round trip with
// ServerSampled false rather than failing.
func TestTracedOnObsOffServer(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil, WithObservability(false))
	c := newTestClient(t, srv)

	st, err := c.EnqueueTraced([]byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if st.ServerSampled {
		t.Error("obs-off server claimed to sample the trace")
	}
	if st.RTTMs <= 0 {
		t.Errorf("RTTMs = %v, want > 0 (client-side timing needs no server)", st.RTTMs)
	}
	if st.WaitMs != 0 || st.FabricMs != 0 || st.ServerMs != 0 {
		t.Errorf("unsampled stages must be zero: %+v", st)
	}
	if v, ok, err := c.Dequeue(); err != nil || !ok || string(v) != "v" {
		t.Fatalf("traced enqueue did not land: (%q, %v, %v)", v, ok, err)
	}
}

// TestMalformedTracedFrame sends a trace-flagged frame whose payload is
// too short to hold the send stamp; the server must answer StatusErr on
// that frame and keep the session usable.
func TestMalformedTracedFrame(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, 1, OpEnqueue|OpTraceFlag, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// A well-formed plain frame behind it proves the session survived.
	if err := writeFrame(bw, 2, OpEnqueue, []byte("ok-value")); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	f, err := readFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if f.id != 1 || f.kind != StatusErr {
		t.Fatalf("short traced frame answered (id=%d, kind=0x%02x), want (1, StatusErr)", f.id, f.kind)
	}
	f, err = readFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if f.id != 2 || f.kind != StatusOK {
		t.Fatalf("follow-up frame answered (id=%d, kind=0x%02x), want (2, StatusOK)", f.id, f.kind)
	}
}

// TestSpanzHandler checks the exemplar endpoint: well-formed JSON,
// populated after traced traffic, slow exemplars sorted slowest first,
// recent spans in sequence order.
func TestSpanzHandler(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)
	for i := 0; i < 20; i++ {
		if _, err := c.EnqueueTraced([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitSpans(t, srv, 20)

	rec := httptest.NewRecorder()
	srv.SpanzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/spanz", nil))
	if rec.Code != 200 {
		t.Fatalf("spanz status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("spanz Content-Type = %q", ct)
	}
	var doc struct {
		Offered        int64          `json:"offered"`
		RecentCapacity int            `json:"recent_capacity"`
		SlowCapacity   int            `json:"slow_capacity"`
		Slow           []obs.SpanView `json:"slow"`
		Recent         []obs.SpanView `json:"recent"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("spanz JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Offered != 20 {
		t.Errorf("offered = %d, want 20", doc.Offered)
	}
	if doc.RecentCapacity != spanRecentCap || doc.SlowCapacity != spanSlowCap {
		t.Errorf("capacities = (%d, %d), want (%d, %d)",
			doc.RecentCapacity, doc.SlowCapacity, spanRecentCap, spanSlowCap)
	}
	if len(doc.Recent) != 20 || len(doc.Slow) == 0 {
		t.Fatalf("spanz holds %d recent, %d slow", len(doc.Recent), len(doc.Slow))
	}
	for i := 1; i < len(doc.Recent); i++ {
		if doc.Recent[i].Seq <= doc.Recent[i-1].Seq {
			t.Fatalf("recent spans out of order at %d", i)
		}
	}
	for i := 1; i < len(doc.Slow); i++ {
		if doc.Slow[i].ServerMs > doc.Slow[i-1].ServerMs {
			t.Fatalf("slow spans not slowest-first at %d: %v after %v",
				i, doc.Slow[i].ServerMs, doc.Slow[i-1].ServerMs)
		}
	}
	for _, sp := range doc.Recent {
		if sp.Op != "enqueue" || sp.Queue != DefaultQueueName || sp.ClientSendUnixNs == 0 {
			t.Fatalf("span view mangled: %+v", sp)
		}
	}

	// Obs-off server: empty but well-formed.
	srvOff, _ := newTestServer(t, 1, nil, WithObservability(false))
	rec = httptest.NewRecorder()
	srvOff.SpanzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/spanz", nil))
	if rec.Code != 200 {
		t.Fatalf("obs-off spanz status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Offered != 0 || len(doc.Recent) != 0 || len(doc.Slow) != 0 {
		t.Errorf("obs-off spanz not empty: %+v", doc)
	}
}

// TestSnapshotStageLatAndMetricsz checks that traced traffic surfaces in
// the snapshot's stage_lat block, the spans counter, and the /metricsz
// per-stage summary series.
func TestSnapshotStageLatAndMetricsz(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)
	for i := 0; i < 8; i++ {
		if _, err := c.EnqueueTraced([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitSpans(t, srv, 8)

	snap := srv.Snapshot()
	if snap.Obs == nil || snap.Obs.Spans != 8 {
		t.Fatalf("snapshot spans = %+v, want 8", snap.Obs)
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		s, ok := snap.Obs.StageLat[st.String()]
		if !ok {
			t.Fatalf("stage_lat missing stage %q", st)
		}
		if s.Count != 8 {
			t.Errorf("stage %q count = %d, want 8", st, s.Count)
		}
	}

	rec := httptest.NewRecorder()
	srv.MetricszHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE queued_spans_total counter",
		"queued_spans_total 8",
		"# TYPE queued_stage_latency_seconds summary",
		`queued_stage_latency_seconds{stage="wait",quantile="0.5"}`,
		`queued_stage_latency_seconds{stage="fabric",quantile="0.99"}`,
		`queued_stage_latency_seconds_count{stage="server"} 8`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q\n%s", want, body)
		}
	}
}

// TestTracezWraparoundOrdering is the regression test for the event-ring
// dump after wraparound: overfill the server's control-plane ring well
// past its capacity, then require the handler's events to be exactly the
// newest capacity-many, strictly seq-sorted, with the overwritten
// remainder reported as dropped.
func TestTracezWraparoundOrdering(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil)
	total := int64(traceRingCap + traceRingCap/2)
	base := srv.trace.Recorded() // lifecycle events already in the ring
	for i := int64(0); i < total; i++ {
		srv.trace.Add("wrap_tick", "q", map[string]any{"i": i})
	}

	rec := httptest.NewRecorder()
	srv.TracezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	var doc struct {
		Recorded int64       `json:"recorded"`
		Capacity int         `json:"capacity"`
		Dropped  int64       `json:"dropped"`
		Events   []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Recorded != base+total {
		t.Errorf("recorded = %d, want %d", doc.Recorded, base+total)
	}
	if len(doc.Events) != traceRingCap {
		t.Fatalf("dump holds %d events, want the full ring %d", len(doc.Events), traceRingCap)
	}
	if doc.Dropped != base+total-int64(traceRingCap) {
		t.Errorf("dropped = %d, want %d", doc.Dropped, base+total-int64(traceRingCap))
	}
	for i := 1; i < len(doc.Events); i++ {
		if doc.Events[i].Seq <= doc.Events[i-1].Seq {
			t.Fatalf("post-wraparound dump out of order at %d: seq %d after %d",
				i, doc.Events[i].Seq, doc.Events[i-1].Seq)
		}
	}
	// The survivors are exactly the newest capacity-many, contiguous.
	if got, want := doc.Events[len(doc.Events)-1].Seq, uint64(base+total-1); got != want {
		t.Errorf("newest surviving seq = %d, want %d", got, want)
	}
	if got, want := doc.Events[0].Seq, uint64(base+total)-uint64(traceRingCap); got != want {
		t.Errorf("oldest surviving seq = %d, want %d", got, want)
	}
}

// TestMetricszHostileQueueName opens a queue whose name contains every
// character the Prometheus text format escapes — a double quote, a
// backslash, and a newline — and requires the exposition to stay
// parseable: every line intact (no raw newline smuggled into a label),
// the escaped name present, quotes balanced.
func TestMetricszHostileQueueName(t *testing.T) {
	hostile := "evil\"queue\\with\nnewline"
	srv, _ := newTestServer(t, 2, nil)
	c := newTestClient(t, srv)
	q, err := c.Open(hostile)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue([]byte("v")); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.MetricszHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	body := rec.Body.String()

	escaped := `evil\"queue\\with\nnewline`
	if !strings.Contains(body, fmt.Sprintf(`queued_queue_len{queue="%s"}`, escaped)) {
		t.Errorf("metricsz missing the escaped hostile queue name\n%s", body)
	}
	if !strings.Contains(body, fmt.Sprintf(`queued_op_latency_seconds_count{queue="%s",op="enqueue"} 1`, escaped)) {
		t.Errorf("metricsz missing the hostile queue's latency summary\n%s", body)
	}
	// Line-level integrity: every non-comment line must look like
	// `name value` or `name{labels} value` with balanced quotes — a raw
	// newline inside a label value would split one sample into two
	// unparseable lines.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, `"`)-strings.Count(line, `\"`) != 0 &&
			(strings.Count(line, `"`)-strings.Count(line, `\"`))%2 != 0 {
			t.Errorf("unbalanced quotes in sample line %q", line)
		}
		rest := line
		if brace := strings.LastIndexByte(line, '}'); brace >= 0 {
			rest = line[brace+1:]
		} else {
			rest = line[strings.IndexByte(line, ' ')+1:]
		}
		if len(strings.Fields(rest)) != 1 {
			t.Errorf("sample line does not end in exactly one value: %q", line)
		}
	}
}

// TestLoadgenTraceEvery smoke-tests the generator's sampled tracing:
// conservation still holds, roughly one in TraceEvery acked enqueues
// comes back with a server-sampled decomposition, and the per-sample
// arithmetic (total = sched + rtt; stages within rtt) is consistent.
func TestLoadgenTraceEvery(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	res, err := RunLoad(srv.Addr().String(), LoadConfig{
		Rate:       2000,
		Duration:   500 * time.Millisecond,
		Producers:  2,
		Consumers:  2,
		TraceEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatalf("conservation violated: lost=%d dup=%d", res.Lost, res.Dup)
	}
	if len(res.Traces) == 0 {
		t.Fatal("TraceEvery produced no trace samples")
	}
	// Every 4th frame is flagged; all acked flagged frames must close.
	if maxWant := res.Acked/4 + 2; int64(len(res.Traces)) > maxWant {
		t.Errorf("%d traces from %d acked enqueues at 1/4 sampling", len(res.Traces), res.Acked)
	}
	for i, s := range res.Traces {
		if !s.ServerSampled {
			t.Fatalf("trace %d not server-sampled against an obs-on server: %+v", i, s)
		}
		if s.Op != "enqueue" {
			t.Fatalf("trace %d op = %q", i, s.Op)
		}
		if s.TotalMs < s.RTTMs-1e-6 || s.TotalMs < s.SchedMs-1e-6 {
			t.Fatalf("trace %d total %.4f below its parts (sched %.4f, rtt %.4f)",
				i, s.TotalMs, s.SchedMs, s.RTTMs)
		}
		if sum := s.WaitMs + s.FabricMs + s.ReplyMs; sum > s.ServerMs+1e-6 {
			t.Fatalf("trace %d stage sum %.4f exceeds server window %.4f", i, sum, s.ServerMs)
		}
	}
	if snap := srv.Snapshot(); snap.Obs == nil || snap.Obs.Spans == 0 {
		t.Error("no spans landed in the server reservoir")
	}
}
