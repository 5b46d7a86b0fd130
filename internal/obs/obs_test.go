package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBucketGeometry checks the log-linear bucket math: every sample maps
// into a bucket whose upper bound admits it, bounds are monotonic, and
// the quantization error stays within one sub-bucket width.
func TestBucketGeometry(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		u := bucketUpper(i)
		if u <= prev {
			t.Fatalf("bucketUpper(%d) = %d, not above previous %d", i, u, prev)
		}
		prev = u
	}
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 12345,
		1e6, 1e9, 1e12, 1<<62 + 12345} {
		i := bucketIndex(v)
		u := bucketUpper(i)
		if i < numBuckets-1 && u < v {
			t.Errorf("value %d landed in bucket %d with upper %d < value", v, i, u)
		}
		if i > 0 && bucketUpper(i-1) >= v {
			t.Errorf("value %d landed in bucket %d but fits bucket %d (upper %d)",
				v, i, i-1, bucketUpper(i-1))
		}
		// Relative quantization error: bounded by one sub-bucket width.
		if v >= minorCount && i < numBuckets-1 {
			if err := float64(u-v) / float64(v); err > 1.0/minorCount {
				t.Errorf("value %d: quantization error %.3f exceeds %.3f", v, err, 1.0/minorCount)
			}
		}
	}
}

// TestHistogramConcurrentRecordMerge hammers one histogram from many
// goroutines on distinct (and colliding) stripes and checks that the
// merged accumulator conserves every sample and its sum exactly. Run
// under -race this also proves recording is data-race free.
func TestHistogramConcurrentRecordMerge(t *testing.T) {
	const goroutines = 16
	const perG = 5000
	var h Histogram
	var wg sync.WaitGroup
	var wantSum int64
	sums := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var sum int64
			for i := 0; i < perG; i++ {
				v := rng.Int63n(1e9)
				h.Record(g, v)
				sum += v
			}
			sums[g] = sum
		}(g)
	}
	wg.Wait()
	for _, s := range sums {
		wantSum += s
	}
	var a Accum
	h.CollectInto(&a)
	if a.count != goroutines*perG {
		t.Fatalf("merged count = %d, want %d", a.count, goroutines*perG)
	}
	if a.sum != wantSum {
		t.Fatalf("merged sum = %d, want %d", a.sum, wantSum)
	}
	var inBuckets int64
	for _, c := range a.counts {
		inBuckets += c
	}
	if inBuckets != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", inBuckets, goroutines*perG)
	}
	s := a.Summary()
	if s.P50Ms <= 0 || s.P50Ms > s.P99Ms || s.P99Ms > s.MaxMs {
		t.Fatalf("implausible percentile ladder: %+v", s)
	}
}

// TestSummaryPercentiles records a known distribution and checks the
// percentile ladder against exact values, within quantization error.
func TestSummaryPercentiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Record(0, v*int64(time.Microsecond))
	}
	var a Accum
	h.CollectInto(&a)
	s := a.Summary()
	check := func(name string, got, wantMs float64) {
		t.Helper()
		if got < wantMs || got > wantMs*(1+2.0/minorCount) {
			t.Errorf("%s = %.4f ms, want within [%v, %v]", name, got, wantMs, wantMs*(1+2.0/minorCount))
		}
	}
	check("p50", s.P50Ms, 0.5)
	check("p90", s.P90Ms, 0.9)
	check("p99", s.P99Ms, 0.99)
	check("p999", s.P999Ms, 0.999)
	check("max", s.MaxMs, 1.0)
	if s.Count != 1000 {
		t.Errorf("count = %d, want 1000", s.Count)
	}
}

// TestRingWraparound overfills a small ring and checks that the survivors
// are exactly the newest events, in sequence order.
func TestRingWraparound(t *testing.T) {
	const capacity, total = 8, 21
	r := NewRing(capacity)
	for i := 0; i < total; i++ {
		r.Add("tick", "q", map[string]any{"i": i})
	}
	if got := r.Recorded(); got != total {
		t.Fatalf("Recorded() = %d, want %d", got, total)
	}
	evs := r.Events()
	if len(evs) != capacity {
		t.Fatalf("ring holds %d events, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		want := uint64(total - capacity + i)
		if ev.Seq != want {
			t.Errorf("event %d has seq %d, want %d (oldest survivors overwritten first)", i, ev.Seq, want)
		}
		if ev.Type != "tick" || ev.Queue != "q" {
			t.Errorf("event %d = %+v, fields mangled", i, ev)
		}
	}
}

// TestRingConcurrentAdd wraps the ring from many goroutines; under -race
// this proves Add/Events are race-free, and the dump must stay sorted and
// duplicate-free.
func TestRingConcurrentAdd(t *testing.T) {
	r := NewRing(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add("churn", fmt.Sprintf("q%d", g), nil)
				if i%50 == 0 {
					r.Events()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Recorded(); got != 1600 {
		t.Fatalf("Recorded() = %d, want 1600", got)
	}
	evs := r.Events()
	seen := make(map[uint64]bool)
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// TestNilRingIsNoop checks the disabled-tracing path: a nil ring accepts
// every call.
func TestNilRingIsNoop(t *testing.T) {
	var r *Ring
	r.Add("x", "", nil)
	if r.Events() != nil || r.Recorded() != 0 || r.Capacity() != 0 {
		t.Fatal("nil ring must behave as empty")
	}
}

// TestLatencySummaryJSONRoundTrip checks the stable field names and exact
// round-tripping of the summary encoding consumed by /statsz readers.
func TestLatencySummaryJSONRoundTrip(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(i, int64(i)*int64(time.Millisecond))
	}
	var a Accum
	h.CollectInto(&a)
	s := a.Summary()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back LatencySummary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("summary did not survive the round trip:\n got %+v\nwant %+v", back, s)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"count", "sum_ms", "p50_ms", "p90_ms", "p99_ms", "p999_ms", "max_ms"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("summary JSON missing %q", key)
		}
	}
}

// TestEventJSONRoundTrip checks the /tracez event encoding.
func TestEventJSONRoundTrip(t *testing.T) {
	r := NewRing(4)
	r.Add("queue_create", "jobs", map[string]any{"id": 4, "rate": 12345.6})
	data, err := json.Marshal(r.Events())
	if err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Type != "queue_create" || back[0].Queue != "jobs" {
		t.Fatalf("event did not survive the round trip: %+v", back)
	}
	if back[0].Data["id"].(float64) != 4 {
		t.Fatalf("event data mangled: %+v", back[0].Data)
	}
}
