//go:build linux

package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// item is what the lib workloads enqueue: the id the delivery check needs
// and, on sampled values, the time its Enqueue call started.
type item struct {
	id    uint64
	stamp int64
}

// caller is one goroutine's private record of a trial: the ids it
// dequeued, its latency samples and, in a traced pass, its spans.
type caller struct {
	every, offset int  // call i is timed when i%every == offset
	recording     bool // spans are kept while set
	log           []uint64
	opLat         []int64 // ns, one per timed call
	deliverLat    []int64 // ns, one per stamped value received
	lateLat       []int64 // ns, open loop only: due time to actual send
	spans         []span  // nil unless traced
	failed        int64
}

func (c *caller) reset() {
	c.log, c.opLat, c.deliverLat, c.lateLat = c.log[:0], c.opLat[:0], c.deliverLat[:0], c.lateLat[:0]
	c.failed = 0
}

func (c *caller) timed(i int) bool { return i%c.every == c.offset }

// span records a root span around one call, while recording.
func (c *caller) span(name uint16, op uint64, t0, t1 int64) {
	if c.recording && len(c.spans) < cap(c.spans) {
		c.spans = append(c.spans, span{name: name, op: op, parent: -1, start: t0, end: t1})
	}
}

// call records one timed call: a latency sample and a span.
func (c *caller) call(name uint16, op uint64, t0, t1 int64) {
	c.opLat = append(c.opLat, t1-t0)
	c.span(name, op, t0, t1)
}

// newCallers makes n callers. A traced pass times every call and keeps
// spans; an untraced one times every sampleEvery-th call.
func newCallers(n int, seed int64, tr *trace) []caller {
	cs := make([]caller, n)
	for i := range cs {
		cs[i].every, cs[i].offset = sampleEvery, sampleOffset(seed, i)
		if tr != nil {
			cs[i].every, cs[i].offset, cs[i].recording = 1, 0, true
			cs[i].spans = make([]span, 0, maxSpans/n)
		}
	}
	return cs
}

// trialResult is what one timed trial contributes to the medians.
type trialResult struct {
	ops       int64 // values enqueued + values dequeued
	wall, cpu time.Duration
	op        latSummary
	deliver   latSummary
	late      latSummary
	lateOver  int64 // sends later than svcLateLimit
	failed    int64
	verdict   verdict
}

// collect merges the callers' samples into r and returns all their logs.
func (r *trialResult) collect(cs []caller) [][]uint64 {
	var op, deliver, late []int64
	logs := make([][]uint64, len(cs))
	for i := range cs {
		op = append(op, cs[i].opLat...)
		deliver = append(deliver, cs[i].deliverLat...)
		late = append(late, cs[i].lateLat...)
		logs[i] = cs[i].log
		r.failed += cs[i].failed
	}
	for _, l := range late {
		if l > int64(svcLateLimit) {
			r.lateOver++
		}
	}
	r.op, r.deliver, r.late = summarize(op), summarize(deliver), summarize(late)
	return logs
}

// libWorkload is one of the two in-process workloads: it can set itself
// up, run one trial, and tear itself down.
type libWorkload interface {
	setup(seed int64) error
	trial(cs []caller, names spanNames) (trialResult, error)
	callers() int
	layer() string // the layer its calls enter, for span names
	close()
	counts(out map[string]float64) // per-layer counts, after close
}

type spanNames struct{ enq, deq uint16 }

// ---- lib-core-pairs ----

type corePairs struct {
	perWkr int // (Enqueue; Dequeue) pairs per worker per trial
	q      *repro.Queue[item]
}

func (w *corePairs) callers() int  { return 2 }
func (w *corePairs) layer() string { return "core" }
func (w *corePairs) close()        { w.q = nil }

func (w *corePairs) setup(int64) error         { return nil } // every trial builds its own queue
func (w *corePairs) counts(map[string]float64) {}

// fresh builds a queue at depth corePairsPrefill. core never frees a
// block, so every trial starts from one of these and a trial's op count,
// not its duration, bounds the memory it retains.
func (w *corePairs) fresh() error {
	w.q = nil
	runtime.GC()
	q, err := repro.NewQueue[item](corePairsProcs)
	if err != nil {
		return fmt.Errorf("repro.NewQueue: %w", err)
	}
	h := q.MustHandle(0)
	for i := range corePairsPrefill {
		h.Enqueue(item{id: makeID(2, uint64(i))}) // producer 2 is the prefill
	}
	w.q = q
	return nil
}

func (w *corePairs) trial(cs []caller, names spanNames) (trialResult, error) {
	if err := w.fresh(); err != nil {
		return trialResult{}, err
	}
	handles := []*repro.Handle[item]{w.q.MustHandle(0), w.q.MustHandle(corePairsProcs - 1)}
	// core keeps every block reachable, so a collection inside a trial can
	// free nothing; whether a trial happens to contain a mark phase, which
	// parks one of the two workers for a scheduler quantum at a time, would
	// only decide which side of p99 those stalls fall on. The collector is
	// off for the length of a trial and runs between trials, in fresh.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var wg sync.WaitGroup
	cpu0, t0 := selfCPU(), time.Now()
	for wi := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, h := &cs[wi], handles[wi]
			c.reset()
			for i := range w.perWkr {
				id := makeID(wi, uint64(i))
				timed := c.timed(i)
				var v item
				var ok bool
				var t1 int64
				if timed {
					s := now()
					h.Enqueue(item{id: id, stamp: s})
					c.call(names.enq, id, s, now())
					s = now()
					v, ok = h.Dequeue()
					t1 = now()
					c.call(names.deq, v.id, s, t1)
				} else {
					h.Enqueue(item{id: id})
					v, ok = h.Dequeue()
				}
				if !ok {
					c.failed++ // cannot be empty at depth 1024 with two workers
					continue
				}
				c.log = append(c.log, v.id)
				if v.stamp != 0 {
					if !timed {
						t1 = now()
					}
					c.deliverLat = append(c.deliverLat, t1-v.stamp)
				}
			}
		}()
	}
	wg.Wait()
	r := trialResult{wall: time.Since(t0), cpu: selfCPU() - cpu0}
	logs := r.collect(cs)
	// What is left is the depth the trial ran at; drain it so the check
	// sees every value.
	var rest []uint64
	for v, ok := handles[0].Dequeue(); ok; v, ok = handles[0].Dequeue() {
		rest = append(rest, v.id)
	}
	n := uint64(w.perWkr)
	r.ops = 2 * int64(len(cs)) * int64(n)
	r.verdict = checkDelivery([]uint64{n, n, corePairsPrefill}, append(logs, rest)...)
	return r, nil
}

// ---- lib-bounded-prodcons ----

type prodCons struct {
	perTrial  int // values per trial
	q         *repro.ShardedQueue[item]
	producers []*repro.ShardedHandle[item]
	consumer  *repro.ShardedHandle[item]
	rot       []uint8
	nulls     int64 // null dequeues over all trials
	values    int64 // values delivered over all trials
	stats     struct{ pairs, enqueues, backlog int64 }
}

func (w *prodCons) callers() int  { return 2 }
func (w *prodCons) layer() string { return "shard" }

// setup builds the fabric the way cmd/queued does (-shards 4 -backend
// bounded, default handle slots) and leases the handles the trial uses.
// The fabric lives across trials: bounded reclaims its blocks.
func (w *prodCons) setup(seed int64) error {
	w.close()
	q, err := repro.NewShardedQueue[item](prodconsShards, repro.WithShardBackend(repro.ShardBackendBounded))
	if err != nil {
		return fmt.Errorf("repro.NewShardedQueue: %w", err)
	}
	w.q = q
	for range prodconsHandles {
		h, err := q.Acquire()
		if err != nil {
			return fmt.Errorf("Acquire: %w", err)
		}
		w.producers = append(w.producers, h)
	}
	if w.consumer, err = q.Acquire(); err != nil {
		return fmt.Errorf("Acquire: %w", err)
	}
	w.rot = rotation(seed, 4096, prodconsHandles)
	return nil
}

func (w *prodCons) close() {
	if w.q == nil {
		return
	}
	for _, h := range w.producers {
		h.Release()
	}
	w.consumer.Release()
	// Released leases have folded their tallies into the shard statistics.
	for _, s := range w.q.ShardStats() {
		w.stats.pairs += s.Pairs
		w.stats.enqueues += s.Enqueues
	}
	w.stats.backlog = int64(w.q.Len())
	w.q, w.producers, w.consumer = nil, nil, nil
}

func (w *prodCons) counts(out map[string]float64) {
	out["shard.null_deq_frac"] = ratio(w.nulls, w.nulls+w.values)
	out["shard.pair_frac"] = ratio(w.stats.pairs, w.stats.enqueues)
	out["shard.backlog_end"] = float64(w.stats.backlog)
}

func (w *prodCons) trial(cs []caller, names spanNames) (trialResult, error) {
	var consumed atomic.Int64
	var abort atomic.Bool
	var wg sync.WaitGroup
	var enqErr error
	sent := make([]uint64, prodconsHandles)
	prod, cons := &cs[0], &cs[1]
	prod.reset()
	cons.reset()
	var nulls int64
	cpu0, t0 := selfCPU(), time.Now()
	wg.Add(2)
	go func() { // producer: singles over the leased handles, in the seeded order
		defer wg.Done()
		for i := range w.perTrial {
			for int64(i)-consumed.Load() >= prodconsCredit {
				runtime.Gosched()
			}
			p := int(w.rot[i%len(w.rot)])
			id := makeID(p, sent[p])
			var err error
			if prod.timed(i) {
				s := now()
				err = w.producers[p].Enqueue(item{id: id, stamp: s})
				prod.call(names.enq, id, s, now())
			} else {
				err = w.producers[p].Enqueue(item{id: id})
			}
			if err != nil {
				enqErr = fmt.Errorf("Enqueue: %w", err)
				abort.Store(true) // the consumer would wait for this value for ever
				return
			}
			sent[p]++
		}
	}()
	go func() { // consumer
		defer wg.Done()
		for got, i := 0, 0; got < w.perTrial && !abort.Load(); i++ {
			var v item
			var ok bool
			var t1 int64
			timed := cons.timed(i)
			if timed {
				s := now()
				v, ok = w.consumer.Dequeue()
				t1 = now()
				cons.call(names.deq, v.id, s, t1)
			} else {
				v, ok = w.consumer.Dequeue()
			}
			if !ok {
				nulls++
				runtime.Gosched()
				continue
			}
			got++
			consumed.Store(int64(got))
			cons.log = append(cons.log, v.id)
			if v.stamp != 0 {
				if !timed {
					t1 = now()
				}
				cons.deliverLat = append(cons.deliverLat, t1-v.stamp)
			}
		}
	}()
	wg.Wait()
	r := trialResult{wall: time.Since(t0), cpu: selfCPU() - cpu0, ops: 2 * int64(w.perTrial)}
	if enqErr != nil {
		return r, enqErr
	}
	logs := r.collect(cs)
	r.verdict = checkDelivery(sent, logs...)
	w.nulls += nulls
	w.values += int64(w.perTrial)
	return r, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ---- running a lib workload ----

// runLib times trials of w for the given duration and reports the
// end-to-end metrics; with a trace it instead alternates untraced and
// traced trials and reports what tracing costs.
func runLib(w libWorkload, cfg runConfig, tr *trace) (*report, error) {
	rep := newReport()
	names := spanNames{}
	if tr != nil {
		names = spanNames{enq: tr.name(w.layer() + ".Enqueue"), deq: tr.name(w.layer() + ".Dequeue")}
	}
	plain := newCallers(w.callers(), cfg.seed, nil)

	// Set-up, several times over; the last one is the one the trials use.
	for range cfg.sz.setups {
		t0 := time.Now()
		if err := w.setup(cfg.seed); err != nil {
			return nil, err
		}
		for range cfg.sz.warmups {
			r, err := w.trial(plain, names)
			if err != nil {
				return nil, err
			}
			rep.check(r)
		}
		rep.sample("setup_s", time.Since(t0).Seconds())
	}
	defer w.close()

	if tr == nil {
		latSamples := 0
		for start, n := time.Now(), 0; n < cfg.sz.minTrials || time.Since(start) < cfg.duration; n++ {
			r, err := w.trial(plain, names)
			if err != nil {
				return nil, err
			}
			rep.check(r)
			rep.sample("ops_per_s", float64(r.ops)/r.wall.Seconds())
			rep.sample("cpu_us_per_op", usPerOp(r.cpu, r.ops))
			rep.sample("op_p50_us", r.op.p50)
			rep.sample("deliver_p50_us", r.deliver.p50)
			latSamples = r.op.n
		}
		rss, err := peakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		rep.sample("peak_rss_mb", rss)
		rep.note("%d timed trials; op latency over %d samples per trial", len(rep.samples["ops_per_s"]), latSamples)
		return rep, nil
	}

	traced := newCallers(w.callers(), cfg.seed, tr)
	var cpuPlain, cpuTraced []float64
	for start, n := time.Now(), 0; n < cfg.sz.tracedTrials || time.Since(start) < cfg.duration/2; n++ {
		r, err := w.trial(plain, names)
		if err != nil {
			return nil, err
		}
		rep.check(r)
		rep.tails(r)
		cpuPlain = append(cpuPlain, usPerOp(r.cpu, r.ops))
		if r, err = w.trial(traced, names); err != nil {
			return nil, err
		}
		rep.check(r)
		cpuTraced = append(cpuTraced, usPerOp(r.cpu, r.ops))
	}
	for i := range traced {
		tr.add(traced[i].spans)
	}
	rep.set("trace.overhead_frac", median(cpuTraced)/median(cpuPlain)-1)
	w.close()
	w.counts(rep.values)
	return rep, nil
}

func usPerOp(d time.Duration, ops int64) float64 {
	return float64(d) / 1e3 / float64(ops)
}
