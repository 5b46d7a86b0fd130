package server

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/obs"
)

// The executor. A drained window is cut into runs — maximal stretches of
// adjacent data frames with the same direction and the same queue id — and
// each run is served by exactly one fabric call with the replies fanned
// back out per frame: the paper's batching argument (a block carries a
// whole set of operations and linearizes as one contiguous stretch, so m
// pending ops cost one propagation) applied one layer above the tree. A
// lone frame is a run of one; there is no other data path.

// dataDir classifies a decoded frame by direction: OpEnqueue for the two
// enqueue opcodes, OpDequeue for the two dequeue opcodes, 0 for a frame
// that belongs to no run (control ops, bad prefixes, unknown opcodes).
func dataDir(d *decoded) byte {
	if d.bad {
		return 0
	}
	switch d.op {
	case OpEnqueue, OpEnqueueBatch:
		return OpEnqueue
	case OpDequeue, OpDequeueBatch:
		return OpDequeue
	}
	return 0
}

// dequeueWant resolves how many values a dequeue frame asks for into d.n:
// 1 for a single, the requested count capped at MaxBatchOps for a batch. A
// batch whose payload is not the 4-byte count fails in position and wants
// nothing.
func dequeueWant(d *decoded) int {
	switch {
	case d.op == OpDequeue:
		d.n = 1
	case len(d.rest) != 4:
		d.err = fmt.Errorf("dequeue batch payload %d bytes, want 4", len(d.rest))
	default:
		d.n = int(min(binary.BigEndian.Uint32(d.rest), MaxBatchOps))
	}
	return d.n
}

// processWindow executes one drained window: runs through executeRun,
// everything else frame by frame through control. Runs never reorder
// across a frame of another direction, queue or kind, so pipelined
// enqueue-then-dequeue sequences observe exactly the one-at-a-time
// semantics.
func (srv *Server) processWindow(s *session, window []frame, fw *frameWriter) error {
	decs := s.decs[:0]
	for _, f := range window {
		decs = append(decs, decodeOp(f))
	}
	s.decs = decs
	// One admit stamp covers the whole window, taken only when the window
	// carries a sampled traced frame — untraced windows pay no clock read.
	if runSampled(window, decs) {
		s.admitNs = time.Now().UnixNano()
	}
	for i := 0; i < len(window); {
		d := &decs[i]
		dir := dataDir(d)
		if dir == 0 {
			if err := srv.control(s, window[i], *d, fw); err != nil {
				return err
			}
			i++
			continue
		}
		// A dequeue run closes early rather than let its total exceed
		// MaxBatchOps, which bounds what one pull can park in the stash.
		want, j := 0, i+1
		if dir == OpDequeue {
			want = dequeueWant(d)
		}
		for ; j < len(window) && dataDir(&decs[j]) == dir && decs[j].qid == d.qid; j++ {
			if dir == OpDequeue {
				w := dequeueWant(&decs[j])
				if want+w > MaxBatchOps {
					break
				}
				want += w
			}
		}
		if err := srv.executeRun(s, dir, want, window[i:j], decs[i:j], fw); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// executeRun serves one run with one fabric call. The queue is bound once;
// a bind failure (unknown id, per-queue registry exhausted) is the answer
// to every frame of the run. The run's sampled frames share at most two
// clock reads bounding the fabric call, and its answered frames share one
// more that prices them into the queue's latency histograms.
func (srv *Server) executeRun(s *session, dir byte, want int, run []frame, decs []decoded, fw *frameWriter) error {
	b, err := s.bind(decs[0].qid)
	if err != nil {
		for _, f := range run {
			if werr := fw.frame(f.id, StatusErr, []byte(err.Error())); werr != nil {
				return werr
			}
		}
		return nil
	}
	if dir == OpEnqueue {
		err = srv.enqueueRun(s, b, run, decs, fw)
	} else {
		err = srv.dequeueRun(s, b, want, run, decs, fw)
	}
	if h := b.t.hists; h != nil && err == nil {
		now := time.Now().UnixNano()
		for i, f := range run {
			if d := &decs[i]; d.err == nil && f.at != 0 {
				h.Record(d.class(), s.stripe, time.Duration(now-f.at))
			}
		}
	}
	return err
}

// stamp reads the clock for a run that carries a sampled frame; the two
// reads bounding its fabric call are shared by every span the run produces.
// An unsampled run reads no clock.
func stamp(traced bool) int64 {
	if !traced {
		return 0
	}
	return time.Now().UnixNano()
}

// enqueueRun admits every frame's values into one EnqueueBatch. A frame
// that fails its own check — a single that no reply could ship back, a
// batch that does not decode — gets its StatusErr in position and
// contributes nothing; the rest of the run is unaffected. A zero-count
// batch is StatusOK with no values, whatever happens to its neighbours.
func (srv *Server) enqueueRun(s *session, b *binding, run []frame, decs []decoded, fw *frameWriter) error {
	// Admit-time copies: the fabric's references must be independent of the
	// (recyclable) frame bodies. decodeBatchPooled copies each value too.
	vals := s.vals[:0]
	for i := range decs {
		d := &decs[i]
		if d.op == OpEnqueueBatch {
			base := len(vals)
			vals, d.err = decodeBatchPooled(d.rest, vals)
			d.n = len(vals) - base
		} else if srv.enqueueFits(d.rest) {
			vals = append(vals, copyBuf(d.rest))
			d.n = 1
		} else {
			d.err = fmt.Errorf("value of %d bytes cannot fit a reply within the %d-byte frame cap",
				len(d.rest), srv.opts.maxFrame)
		}
	}
	traced := runSampled(run, decs)
	s.fabricStart = stamp(traced)
	err := b.h.EnqueueBatch(vals)
	s.fabricEnd = stamp(traced)
	if n := int64(len(vals)); err != nil {
		for _, v := range vals { // rejected (closed): the copies die here
			putBuf(v)
		}
	} else if n > 0 {
		if n > 1 {
			srv.noteFabricBatch(n)
		}
		srv.stats.enqueues.Add(n)
		srv.stats.batchedOps.Add(n)
		b.t.enqueues.Add(n)
	}
	s.vals = vals[:0] // EnqueueBatch copies the headers; the scratch is ours again
	for i, f := range run {
		d := &decs[i]
		var werr error
		switch {
		case d.err != nil:
			werr = fw.frame(f.id, StatusErr, []byte(d.err.Error()))
		case err != nil && d.n > 0:
			d.err = err // refused, not answered: stays out of the latency histograms
			werr = fw.frame(f.id, StatusClosed)
		default:
			werr = srv.writeReply(s, b, f, d, StatusOK, nil, nil, fw)
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// dequeueRun pulls the run's total once — stash first, then one fabric
// call for the remainder — and deals the values to the frames in order: a
// single takes one, a batch stops at its count or at its reply's byte
// budget, and frames past the values get StatusEmpty without another
// sweep. Values are dealt straight from the binding's stash, so whatever
// was pulled but not shipped — by the budget, or by a reply the socket did
// not take whole, whose values the frameWriter hands back — is still
// there, in order, for the next run or for teardown to re-enqueue.
func (srv *Server) dequeueRun(s *session, b *binding, want int, run []frame, decs []decoded, fw *frameWriter) error {
	traced := runSampled(run, decs)
	s.fabricStart = stamp(traced)
	fromFabric := b.pull(want)
	s.fabricEnd = stamp(traced)
	if want > 1 && fromFabric > 0 {
		srv.noteFabricBatch(fromFabric)
	}
	var shipped, empties int64
	var werr error
	for i, f := range run {
		d := &decs[i]
		if d.err != nil {
			if werr = fw.frame(f.id, StatusErr, []byte(d.err.Error())); werr != nil {
				break
			}
			continue
		}
		pending := b.pending()
		switch {
		case d.op == OpDequeue:
			d.n = min(1, len(pending))
		default:
			// The frame cap bounds every frame the server emits, not only
			// the ones it reads. A traced reply carries the span block too,
			// but only if a value fits beside it: writeReply drops a block
			// that does not fit, and charging for it would answer EMPTY
			// while a value waits in the stash.
			vals := pending[:min(d.n, len(pending))]
			budget := srv.opts.maxFrame - frameHeader - 4
			if sampled(f, *d) && batchFits(vals, budget-traceBlockLen) > 0 {
				budget -= traceBlockLen
			}
			d.n = batchFits(vals, budget)
		}
		switch {
		case d.n == 0:
			werr = srv.writeReply(s, b, f, d, StatusEmpty, nil, nil, fw)
		case d.op == OpDequeue:
			werr = srv.writeReply(s, b, f, d, StatusOK, pending[0], nil, fw)
		default:
			werr = srv.writeReply(s, b, f, d, StatusOK, nil, pending[:d.n], fw)
		}
		if werr != nil {
			break
		}
		if d.n == 0 {
			empties++
			continue
		}
		fw.hold(b, pending[:d.n]) // recycled once the reply is written
		b.consume(d.n)
		shipped += int64(d.n)
	}
	srv.stats.batchedOps.Add(shipped + empties) // an empty reply still answers one op
	srv.stats.dequeues.Add(shipped)
	srv.stats.emptyDeqs.Add(empties)
	b.t.dequeues.Add(shipped)
	b.t.emptyDeqs.Add(empties)
	return werr
}

// batchFits returns how many of vals, from the first, a batch reply body
// of budget bytes (past its count word) can carry.
func batchFits(vals [][]byte, budget int) int {
	k := 0
	for ; k < len(vals) && 4+len(vals[k]) <= budget; k++ {
		budget -= 4 + len(vals[k])
	}
	return k
}

// pull makes at least n values pending if the fabric has them: what the
// stash already holds counts first, and one fabric batch call fetches the
// remainder. It returns how many values that call produced.
func (b *binding) pull(n int) int64 {
	have := len(b.stash) - b.head
	if have >= n {
		return 0
	}
	// Slide the live values to the front before appending, so the buffer's
	// size tracks what is pending rather than everything ever pulled.
	b.stash = b.stash[:copy(b.stash, b.stash[b.head:])]
	b.head = 0
	var got int
	b.stash, got = b.h.DequeueBatchAppend(b.stash, n-have)
	return int64(got)
}

// unconsume puts vs, values whose replies never got out whole, back in
// order at the front of the pending values. vs becomes the stash.
func (b *binding) unconsume(vs [][]byte) {
	b.stash, b.head = append(vs, b.stash[b.head:]...), 0
}

// pending returns the stashed values in dequeue order.
func (b *binding) pending() [][]byte { return b.stash[b.head:] }

// consume drops the first k pending values (shipped, their storage
// recycled by the caller).
func (b *binding) consume(k int) {
	if b.head += k; b.head == len(b.stash) {
		b.stash, b.head = b.stash[:0], 0
	}
}

// enqueueFits reports whether an enqueued value of this size can always be
// shipped back, whatever reply type a dequeuer uses (see
// batchReplyOverhead).
func (srv *Server) enqueueFits(v []byte) bool {
	return len(v)+frameHeader+batchReplyOverhead <= srv.opts.maxFrame
}

// noteFabricBatch records one multi-op fabric call of n ops.
func (srv *Server) noteFabricBatch(n int64) {
	srv.stats.fabricBatches.Add(1)
	srv.stats.fabricBatchOps.Add(n)
}

// class is the latency class an answered data frame is priced under; for
// dequeue frames d.n is by then the number of values the reply shipped.
func (d *decoded) class() obs.Op {
	switch {
	case d.op == OpEnqueue:
		return obs.OpEnqueue
	case d.op == OpEnqueueBatch:
		return obs.OpBatch
	case d.n == 0:
		return obs.OpNullDequeue
	case d.op == OpDequeue:
		return obs.OpDequeue
	}
	return obs.OpBatch
}

// sampled reports whether a request frame is a live trace sample: the
// client set the trace flag and the server stamped the frame's read (i.e.
// observability is on). A traced frame on an obs-off server is served
// normally but answered plain — the client reads that as "declined".
func sampled(f frame, d decoded) bool {
	return d.traced && f.at != 0
}

// runSampled reports whether any of the frames is a live trace sample,
// deciding whether their window and run pay for clock reads.
func runSampled(run []frame, decs []decoded) bool {
	for i := range run {
		if sampled(run[i], decs[i]) {
			return true
		}
	}
	return false
}

// writeReply writes one successful data reply (StatusOK or StatusEmpty),
// upgrading it to the traced form — status|OpTraceFlag with a span-block
// payload prefix — when the request was a live trace sample. The span
// itself is parked on the session until the window's flush lands
// (completeSpans), which closes its last stage. The reply body is either
// payload (a single value) or bvals (a batch reply, encoded straight into
// the egress scratch) — never both. A traced reply that would overflow the
// frame cap falls back to the plain form — the span is still captured
// server-side.
func (srv *Server) writeReply(s *session, b *binding, f frame, d *decoded, status byte,
	payload []byte, bvals [][]byte, fw *frameWriter) error {
	var block [traceBlockLen]byte
	var span []byte
	if sampled(f, *d) {
		replyWrite := time.Now().UnixNano()
		s.winSpans = append(s.winSpans, &obs.Span{
			Queue:       b.t.name,
			Op:          d.class().String(),
			Session:     s.id,
			ReqID:       f.id,
			Ops:         d.n,
			ClientSend:  d.sendNs,
			Read:        f.at,
			Admit:       s.admitNs,
			FabricStart: s.fabricStart,
			FabricEnd:   s.fabricEnd,
			ReplyWrite:  replyWrite,
		})
		bodyLen := len(payload)
		if bvals != nil {
			bodyLen = encodedBatchSize(bvals)
		}
		if frameHeader+traceBlockLen+bodyLen <= srv.opts.maxFrame {
			for i, ns := range [5]int64{f.at, s.admitNs, s.fabricStart, s.fabricEnd, replyWrite} {
				binary.BigEndian.PutUint64(block[i*8:], uint64(ns))
			}
			span = block[:]
			status |= OpTraceFlag
		}
	}
	if bvals != nil {
		return fw.batchFrame(f.id, status, span, bvals)
	}
	return fw.frame(f.id, status, span, payload)
}

// completeSpans closes the window's parked spans with the flush timestamp
// that just landed, prices their stages into the per-stage histograms, and
// publishes them to the exemplar reservoir.
func (srv *Server) completeSpans(s *session) {
	if len(s.winSpans) == 0 {
		return
	}
	now := time.Now().UnixNano()
	for i, sp := range s.winSpans {
		sp.Flush = now
		srv.stageHists.RecordSpan(s.stripe, sp)
		srv.spans.Offer(sp)
		s.winSpans[i] = nil
	}
	s.winSpans = s.winSpans[:0]
}
