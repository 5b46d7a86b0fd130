package server

import (
	"encoding/binary"
	"time"
)

// Client-side request tracing: the traced variants of the data operations
// set OpTraceFlag on the wire, carry the client's send timestamp, and
// close the span the server stamped with the reply's receive time. See
// OpTraceFlag in wire.go for the frame layout and obs.Span for the
// server-side record.

// TraceStages is the client's clock-skew-free decomposition of one traced
// operation. Client-clock and server-clock stamps are never subtracted
// from each other: RTTMs is a client-clock interval, the stage columns are
// server-clock intervals, and NetMs is the difference of the two
// intervals — everything the RTT spent outside the server's read-to-reply
// window (network both ways, the server's socket flush, and the client's
// read path). The server-side flush stage itself cannot ride the reply it
// precedes; /spanz has that split.
type TraceStages struct {
	Op string `json:"op"` // latency class of the traced frame

	// ServerSampled is false when the server answered plain — it runs with
	// observability off, predates tracing, or the traced reply could not
	// fit the frame cap. Only RTTMs is meaningful then.
	ServerSampled bool `json:"server_sampled"`

	RTTMs    float64 `json:"rtt_ms"`    // client send to client receive (client clock)
	WaitMs   float64 `json:"wait_ms"`   // socket read to window admit
	FabricMs float64 `json:"fabric_ms"` // the queue operation
	ReplyMs  float64 `json:"reply_ms"`  // fabric end to reply write
	ServerMs float64 `json:"server_ms"` // socket read to reply write (sum of the above + read-side slack)
	NetMs    float64 `json:"net_ms"`    // RTTMs - ServerMs: network + server flush + client read
}

// traceStagesFrom closes a span on the client: sendNs/recvNs are the
// client's own stamps, stamps the server's five (read, admit, fabric
// start, fabric end, reply write). Stage durations are clamped at zero
// like Span.StageNs.
func traceStagesFrom(op string, sendNs, recvNs int64, stamps [5]int64, sampledByServer bool) TraceStages {
	ms := func(ns int64) float64 {
		if ns < 0 {
			return 0
		}
		return float64(ns) / 1e6
	}
	st := TraceStages{Op: op, RTTMs: ms(recvNs - sendNs)}
	if !sampledByServer {
		return st
	}
	st.ServerSampled = true
	read, admit, fabStart, fabEnd, replyWrite := stamps[0], stamps[1], stamps[2], stamps[3], stamps[4]
	st.WaitMs = ms(admit - read)
	st.FabricMs = ms(fabEnd - fabStart)
	st.ReplyMs = ms(replyWrite - fabEnd)
	st.ServerMs = ms(replyWrite - read)
	st.NetMs = ms(int64((st.RTTMs - st.ServerMs) * 1e6))
	return st
}

// tracedRoundTrip issues one traced request synchronously: the base op
// gains the queue and trace flags, the payload its prefixes, and the
// reply is normalized back to its plain form with the closed stages
// alongside.
func (c *Client) tracedRoundTrip(baseOp byte, opName string, qid uint32, payload []byte) (frame, TraceStages, error) {
	// The trace stamp leads, then the queue id — matching decodeOp's
	// stripping order — in one stack prefix array, so a traced qualified
	// frame costs no more encode allocations than a plain one.
	op := baseOp | OpTraceFlag
	var prefix [traceStampLen + queueIDLen]byte
	sendNs := time.Now().UnixNano()
	binary.BigEndian.PutUint64(prefix[:traceStampLen], uint64(sendNs))
	pre := prefix[:traceStampLen]
	if qid != 0 {
		op |= OpQueueFlag
		binary.BigEndian.PutUint32(prefix[traceStampLen:], qid)
		pre = prefix[:]
	}
	rf, recvNs, err := c.wait(c.startParts(op, nil, nil, pre, payload))
	if err != nil {
		return frame{}, TraceStages{}, err
	}
	if recvNs == 0 {
		recvNs = time.Now().UnixNano() // plain reply: the read loop didn't stamp
	}
	f, stamps, sampledByServer, err := splitTracedReply(rf)
	if err != nil {
		return frame{}, TraceStages{}, err
	}
	return f, traceStagesFrom(opName, sendNs, recvNs, stamps, sampledByServer), nil
}

// EnqueueTraced is Enqueue with request tracing: the frame is flagged for
// per-stage timing, the server (when observability is on) records a span
// — visible on /spanz and in the stage histograms — and the returned
// TraceStages decompose this one call's latency. Use it to sample, not to
// wrap every call: a traced frame pays extra clock reads and a 40-byte
// reply prefix.
func (c *Client) EnqueueTraced(v []byte) (TraceStages, error) { return c.enqueueTraced(0, v) }

func (c *Client) enqueueTraced(qid uint32, v []byte) (TraceStages, error) {
	if len(v)+frameHeader+batchReplyOverhead > c.maxFrame {
		return TraceStages{}, errValueTooLarge(len(v), c.maxFrame)
	}
	f, st, err := c.tracedRoundTrip(OpEnqueue, "enqueue", qid, v)
	if err != nil {
		return TraceStages{}, err
	}
	if f.kind != StatusOK {
		return TraceStages{}, statusErr(f)
	}
	return st, nil
}

// DequeueTraced is Dequeue with request tracing (see EnqueueTraced). The
// stages are valid whether or not a value was delivered — an empty poll is
// a traced null-dequeue.
func (c *Client) DequeueTraced() ([]byte, bool, TraceStages, error) { return c.dequeueTraced(0) }

func (c *Client) dequeueTraced(qid uint32) ([]byte, bool, TraceStages, error) {
	f, st, err := c.tracedRoundTrip(OpDequeue, "dequeue", qid, nil)
	if err != nil {
		return nil, false, TraceStages{}, err
	}
	switch f.kind {
	case StatusOK:
		return f.payload, true, st, nil
	case StatusEmpty:
		st.Op = "null_dequeue" // match the server's latency class
		return nil, false, st, nil
	default:
		return nil, false, TraceStages{}, statusErr(f)
	}
}

// EnqueueTraced appends v to the named queue with request tracing (see
// Client.EnqueueTraced).
func (q *NamedQueue) EnqueueTraced(v []byte) (TraceStages, error) {
	return q.c.enqueueTraced(q.id, v)
}

// DequeueTraced removes an element from the named queue with request
// tracing (see Client.DequeueTraced).
func (q *NamedQueue) DequeueTraced() ([]byte, bool, TraceStages, error) {
	return q.c.dequeueTraced(q.id)
}
