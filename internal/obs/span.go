package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Request tracing: a Span is the server-side record of one traced request
// frame's life, stamped at each stage boundary by the service layer. The
// client opts a frame into tracing on the wire (a flag bit plus its own
// send timestamp); the server stamps the stages below with its own clock
// and both keeps the span here (the exemplar reservoir, served by /spanz)
// and ships the stamps back in the reply so the client can close the span
// with its receive time. Stage durations are always differences within
// one clock — client-to-client or server-to-server — so the decomposition
// is immune to clock skew between the two hosts.

// Stage names one interval of a traced request's in-server life. The
// service layer stamps the boundaries; StageNs derives the durations.
type Stage int

// Stages of a traced request frame. NumStages sizes per-stage histogram
// arrays.
const (
	// StageWait is socket read to batcher admit: time spent queued in the
	// session's bounded in-flight window before a batch pass picked the
	// frame up.
	StageWait Stage = iota
	// StageFabric is the queue operation itself: the fabric call (stash
	// service included) that moves the frame's values.
	StageFabric
	// StageReply is fabric completion to the reply frame being written
	// into the session's buffered writer.
	StageReply
	// StageFlush is reply write to the batch pass's single socket flush
	// landing (the frame shares its flush with the rest of its window).
	StageFlush
	// StageServer is the whole in-server interval, read to flush.
	StageServer
	NumStages
)

// String returns the stable lower-case name used in JSON fields and
// /metricsz label values.
func (s Stage) String() string {
	switch s {
	case StageWait:
		return "wait"
	case StageFabric:
		return "fabric"
	case StageReply:
		return "reply"
	case StageFlush:
		return "flush"
	case StageServer:
		return "server"
	default:
		return "unknown"
	}
}

// Span is one traced request frame's stage record. Timestamps are
// server-clock unix nanoseconds; a zero Flush means the span was captured
// before its flush stamp (it never is, once published to a Reservoir).
// ClientSend is the client's own send stamp (client clock), carried in
// the traced frame — useful for identifying the request, not for
// cross-clock arithmetic.
type Span struct {
	Seq     uint64 // assigned by the reservoir at Offer
	Queue   string
	Op      string // latency class, an Op.String() value
	Session uint64
	ReqID   uint64 // wire frame id, matching the client's pipeline
	Ops     int    // values moved by the frame (batch frames move many)

	ClientSend int64 // client-clock unix ns from the traced frame

	Read        int64 // server pulled the frame off the socket
	Admit       int64 // server admitted the frame's window for execution
	FabricStart int64 // queue operation began
	FabricEnd   int64 // queue operation returned
	ReplyWrite  int64 // reply frame written to the session buffer
	Flush       int64 // the window's socket flush returned
}

// StageNs returns the duration of one stage in nanoseconds. Stages whose
// closing stamp is missing (a span inspected before flush) report 0, as
// does any stamping anomaly that would go negative — stage durations are
// durations, never corrections.
func (sp *Span) StageNs(st Stage) int64 {
	var d int64
	switch st {
	case StageWait:
		d = sp.Admit - sp.Read
	case StageFabric:
		d = sp.FabricEnd - sp.FabricStart
	case StageReply:
		d = sp.ReplyWrite - sp.FabricEnd
	case StageFlush:
		if sp.Flush != 0 {
			d = sp.Flush - sp.ReplyWrite
		}
	case StageServer:
		if sp.Flush != 0 {
			d = sp.Flush - sp.Read
		} else {
			d = sp.ReplyWrite - sp.Read
		}
	}
	if d < 0 {
		return 0
	}
	return d
}

// SpanView is the stable JSON encoding of a span served by /spanz: stage
// durations in milliseconds next to the identifying metadata.
type SpanView struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"` // the read stamp, server clock
	Queue    string    `json:"queue"`
	Op       string    `json:"op"`
	Session  uint64    `json:"session"`
	ReqID    uint64    `json:"req_id"`
	Ops      int       `json:"ops"`
	WaitMs   float64   `json:"wait_ms"`
	FabricMs float64   `json:"fabric_ms"`
	ReplyMs  float64   `json:"reply_ms"`
	FlushMs  float64   `json:"flush_ms"`
	ServerMs float64   `json:"server_ms"`

	ClientSendUnixNs int64 `json:"client_send_unix_ns,omitempty"`
}

// View renders the span for /spanz.
func (sp *Span) View() SpanView {
	return SpanView{
		Seq:              sp.Seq,
		Time:             time.Unix(0, sp.Read),
		Queue:            sp.Queue,
		Op:               sp.Op,
		Session:          sp.Session,
		ReqID:            sp.ReqID,
		Ops:              sp.Ops,
		WaitMs:           float64(sp.StageNs(StageWait)) / nsPerMs,
		FabricMs:         float64(sp.StageNs(StageFabric)) / nsPerMs,
		ReplyMs:          float64(sp.StageNs(StageReply)) / nsPerMs,
		FlushMs:          float64(sp.StageNs(StageFlush)) / nsPerMs,
		ServerMs:         float64(sp.StageNs(StageServer)) / nsPerMs,
		ClientSendUnixNs: sp.ClientSend,
	}
}

// StageHists is one set of per-stage latency histograms, fed by traced
// frames only (untraced traffic pays no stage stamping).
type StageHists struct {
	h [NumStages]Histogram
}

// NewStageHists returns a zeroed per-stage histogram set.
func NewStageHists() *StageHists { return &StageHists{} }

// Record adds one duration sample to the stage's histogram; stripe is the
// caller's affinity hint (see OpHists.Record).
func (s *StageHists) Record(st Stage, stripe int, d time.Duration) {
	s.h[st].Record(stripe, int64(d))
}

// RecordSpan records every stage of a completed span.
func (s *StageHists) RecordSpan(stripe int, sp *Span) {
	if s == nil {
		return
	}
	for st := Stage(0); st < NumStages; st++ {
		s.h[st].Record(stripe, sp.StageNs(st))
	}
}

// Summary collects and summarizes one stage's histogram.
func (s *StageHists) Summary(st Stage) LatencySummary {
	var a Accum
	s.h[st].CollectInto(&a)
	return a.Summary()
}

// Reservoir is a bounded, lock-free exemplar store for completed spans,
// biased toward slow requests: a ring of the most recent spans (coverage —
// what does a typical traced request look like right now) plus a slot
// table holding the slowest spans seen (the exemplars worth explaining).
// Writers publish with atomic pointer stores and a bounded number of CAS
// attempts, so offering a span never blocks the connection goroutine
// that produced it; a span that loses its CAS race is simply dropped — the
// reservoir answers "show me slow exemplars", not "count every span".
type Reservoir struct {
	recent []atomic.Pointer[Span]
	slow   []atomic.Pointer[Span]
	seq    atomic.Uint64 // spans offered == next sequence number
}

// NewReservoir returns a reservoir keeping the last recentN spans and the
// slowN slowest (each floored at 1).
func NewReservoir(recentN, slowN int) *Reservoir {
	if recentN < 1 {
		recentN = 1
	}
	if slowN < 1 {
		slowN = 1
	}
	return &Reservoir{
		recent: make([]atomic.Pointer[Span], recentN),
		slow:   make([]atomic.Pointer[Span], slowN),
	}
}

// Offer publishes a completed span: it always lands in the recent ring
// and displaces the slow table's fastest occupant if it is slower. A nil
// reservoir (tracing disabled) is a no-op, so call sites need no guard.
// The span is retained; callers must not mutate it afterwards.
func (r *Reservoir) Offer(sp *Span) {
	if r == nil || sp == nil {
		return
	}
	sp.Seq = r.seq.Add(1) - 1
	r.recent[sp.Seq%uint64(len(r.recent))].Store(sp)

	d := sp.StageNs(StageServer)
	// A bounded number of admission attempts: find the current minimum
	// (empty slots count as minimal) and CAS it out if we are slower. A
	// lost race means a concurrent writer changed the table; one retry
	// keeps admission near-exact without unbounded spinning.
	for attempt := 0; attempt < 2; attempt++ {
		minIdx, minDur := -1, int64(-1)
		var minSpan *Span
		for i := range r.slow {
			cur := r.slow[i].Load()
			if cur == nil {
				minIdx, minDur, minSpan = i, -1, nil
				break
			}
			if cd := cur.StageNs(StageServer); minIdx == -1 || cd < minDur {
				minIdx, minDur, minSpan = i, cd, cur
			}
		}
		if minIdx == -1 || d <= minDur {
			return
		}
		if r.slow[minIdx].CompareAndSwap(minSpan, sp) {
			return
		}
	}
}

// Offered returns how many spans have ever been offered.
func (r *Reservoir) Offered() int64 {
	if r == nil {
		return 0
	}
	return int64(r.seq.Load())
}

// RecentCapacity returns the recent ring's size; SlowCapacity the slow
// table's.
func (r *Reservoir) RecentCapacity() int {
	if r == nil {
		return 0
	}
	return len(r.recent)
}

// SlowCapacity returns the slow table's size.
func (r *Reservoir) SlowCapacity() int {
	if r == nil {
		return 0
	}
	return len(r.slow)
}

// Snapshot returns the reservoir's current contents: the recent ring in
// sequence order (oldest first) and the slow table sorted slowest first.
// Each slot read is atomic, so every returned span is complete; as with
// the trace ring, a concurrent Offer may land between slot reads.
func (r *Reservoir) Snapshot() (recent, slow []Span) {
	if r == nil {
		return nil, nil
	}
	for i := range r.recent {
		if sp := r.recent[i].Load(); sp != nil {
			recent = append(recent, *sp)
		}
	}
	sort.Slice(recent, func(i, j int) bool { return recent[i].Seq < recent[j].Seq })
	for i := range r.slow {
		if sp := r.slow[i].Load(); sp != nil {
			slow = append(slow, *sp)
		}
	}
	sort.Slice(slow, func(i, j int) bool {
		return slow[i].StageNs(StageServer) > slow[j].StageNs(StageServer)
	})
	return recent, slow
}
