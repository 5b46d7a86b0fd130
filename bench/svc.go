//go:build linux

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// svcParams is what distinguishes the two service workloads.
type svcParams struct {
	valueLen int
	m        int     // values per frame; 1 uses Enqueue/Dequeue, more the batch calls
	openRate float64 // frames per second in an open trial
}

// generator is the benchmark's own load generator: svcCallers producer
// goroutines on one Client and svcCallers consumer goroutines on another,
// all in this process at GOMAXPROCS 1. It is the same code whether it
// drives queued or the null server.
type generator struct {
	p          svcParams
	seed       int64
	pool       []byte
	prod, cons *server.Client
	producers  []caller
	consumers  []caller
	trials     int      // trials run so far; values carry it so a straggler is told apart
	seq        []uint64 // this trial's next sequence number, per producer caller
	ids        spanIDs
	pace       *hrTimer // open trials: wakes the pacer at each arrival's due time
	traced     bool     // every tracedEvery-th request of a caller is a traced one
	stages     stageSamples
}

// spanIDs are the names a traced pass records under.
type spanIDs struct{ enq, deq, wait, fabric, reply uint16 }

func newGenerator(p svcParams, seed int64, addr string, tr *trace) (*generator, error) {
	g := &generator{p: p, seed: seed, pool: payloadPool(seed)}
	var err error
	if g.pace, err = newHRTimer(); err != nil {
		return nil, err
	}
	if g.prod, err = server.Dial(addr); err != nil {
		g.pace.close()
		return nil, fmt.Errorf("dial producer connection: %w", err)
	}
	if g.cons, err = server.Dial(addr); err != nil {
		g.pace.close()
		g.prod.Close()
		return nil, fmt.Errorf("dial consumer connection: %w", err)
	}
	g.producers = newCallers(svcCallers, seed, tr)
	g.consumers = newCallers(svcCallers, seed, tr)
	if tr != nil {
		g.ids = spanIDs{
			enq: tr.name("client.Enqueue"), deq: tr.name("client.Dequeue"),
			wait: tr.name("server.wait"), fabric: tr.name("server.fabric"), reply: tr.name("server.reply"),
		}
		if p.m > 1 {
			g.ids.enq, g.ids.deq = tr.name("client.EnqueueBatch"), tr.name("client.DequeueBatch")
		}
	}
	g.setTraced(false)
	return g, nil
}

// setTraced turns the traced pass's extra work on or off: traced requests,
// and a span around every call.
func (g *generator) setTraced(on bool) {
	g.traced = on
	for i := range g.producers {
		g.producers[i].recording, g.consumers[i].recording = on, on
	}
}

func (g *generator) close() {
	if g.prod == nil {
		return
	}
	g.pace.close()
	g.prod.Close()
	g.cons.Close()
	g.prod, g.cons = nil, nil
}

// stageSamples are the traced requests' stage durations, in nanoseconds.
type stageSamples struct {
	mu                       sync.Mutex
	wait, fabric, reply, net []int64
}

func msToNs(ms float64) int64 { return int64(ms * 1e6) }

// traced records one traced request: its stage durations, and the stages
// as children of the span c recorded last. The stages are durations on the
// server's clock; they are placed inside the round trip by assuming the
// network took as long there as back.
func (s *stageSamples) traced(c *caller, ids spanIDs, st server.TraceStages) {
	if !st.ServerSampled {
		return // the server declined to sample: nothing to decompose
	}
	s.mu.Lock()
	s.wait = append(s.wait, msToNs(st.WaitMs))
	s.fabric = append(s.fabric, msToNs(st.FabricMs))
	s.reply = append(s.reply, msToNs(st.ReplyMs))
	s.net = append(s.net, msToNs(st.NetMs))
	s.mu.Unlock()
	if len(c.spans) == 0 || len(c.spans)+3 > cap(c.spans) {
		return
	}
	parent := int32(len(c.spans) - 1)
	root := c.spans[parent]
	read := root.start + msToNs(st.NetMs)/2
	written := read + msToNs(st.ServerMs)
	fabricEnd := written - msToNs(st.ReplyMs)
	c.spans = append(c.spans,
		span{name: ids.wait, op: root.op, parent: parent, start: read, end: read + msToNs(st.WaitMs)},
		span{name: ids.fabric, op: root.op, parent: parent, start: fabricEnd - msToNs(st.FabricMs), end: fabricEnd},
		span{name: ids.reply, op: root.op, parent: parent, start: fabricEnd, end: written})
}

// send enqueues one frame of g.p.m values for producer caller pi, stamped
// with due, and returns how many values the server acknowledged. bufs are
// the caller's reusable value buffers; call is how many frames the caller
// has sent before this one.
func (g *generator) send(pi, call int, bufs [][]byte, due int64) (acked int, err error) {
	c := &g.producers[pi]
	producer := g.trials*svcCallers + pi
	first := makeID(producer, g.seq[pi])
	for k := range bufs {
		fillValue(bufs[k], g.pool, first+uint64(k), due)
	}
	probe := g.traced && call%tracedEvery == 0
	var st server.TraceStages
	s := now()
	switch {
	case g.p.m > 1:
		err = g.prod.EnqueueBatch(bufs)
	case probe:
		st, err = g.prod.EnqueueTraced(bufs[0])
	default:
		err = g.prod.Enqueue(bufs[0])
	}
	t1 := now()
	if err != nil {
		return 0, err
	}
	c.opLat = append(c.opLat, t1-due) // caller-visible latency runs from when the frame was due
	c.span(g.ids.enq, first, s, t1)
	g.seq[pi] += uint64(len(bufs))
	if !probe {
		return len(bufs), nil
	}
	if g.p.m == 1 {
		g.stages.traced(c, g.ids, st)
		return 1, nil
	}
	// The public Client traces single operations only, so a batch
	// workload's traced pass sends one traced single value behind every
	// tracedEvery-th frame.
	id := makeID(producer, g.seq[pi])
	fillValue(bufs[0], g.pool, id, due)
	s = now()
	if st, err = g.prod.EnqueueTraced(bufs[0]); err != nil {
		return len(bufs), err
	}
	c.span(g.ids.enq, id, s, now())
	g.stages.traced(c, g.ids, st)
	g.seq[pi]++
	return len(bufs) + 1, nil
}

// receive dequeues one frame's worth of values for consumer caller ci and
// returns how many arrived.
func (g *generator) receive(ci, call int) (int, error) {
	c := &g.consumers[ci]
	probe := g.traced && call%tracedEvery == 0
	var vals [][]byte
	var one [1][]byte
	var st server.TraceStages
	var ok bool
	var err error
	s := now()
	switch {
	case probe:
		if one[0], ok, st, err = g.cons.DequeueTraced(); ok {
			vals = one[:]
		}
	case g.p.m > 1:
		vals, err = g.cons.DequeueBatch(g.p.m)
	default:
		if one[0], ok, err = g.cons.Dequeue(); ok {
			vals = one[:]
		}
	}
	t1 := now()
	if err != nil || len(vals) == 0 {
		return 0, err
	}
	for _, v := range vals {
		id, stamp, ok := readValue(v, g.pool)
		if !ok {
			id = ^uint64(0) // not a value this run made: the check counts it unknown
		}
		c.log = append(c.log, id)
		c.deliverLat = append(c.deliverLat, t1-stamp)
	}
	c.span(g.ids.deq, c.log[len(c.log)-len(vals)], s, t1)
	if probe {
		g.stages.traced(c, g.ids, st)
	}
	return len(vals), nil
}

// phase is one trial's shape: open (frames due on a schedule) or closed
// (back to back under a credit, until a deadline).
type phase struct {
	due      []int64       // open: arrival times from the trial's start
	duration time.Duration // closed: how long producers keep sending
}

// trial runs one trial of either phase and checks what was delivered. A
// failed operation is counted and the caller carries on (or stops, if the
// failure is not a refusal); the first such error is returned with the
// result, which stays valid.
func (g *generator) trial(ph phase) (trialResult, error) {
	var (
		acked     atomic.Int64 // values acknowledged
		delivered atomic.Int64 // values received
		prodDone  atomic.Int64 // when the last producer finished; 0 before
		failures  atomic.Int64 // operations that failed
		prodWG    sync.WaitGroup
		consWG    sync.WaitGroup
		errMu     sync.Mutex
		firstErr  error
	)
	// failed counts one failed operation and reports whether the caller
	// can go on: a refusal is retryable, anything else means the
	// connection is gone.
	failed := func(err error) bool {
		failures.Add(1)
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		return errors.Is(err, server.ErrBusy)
	}
	g.begin()
	start := now() + int64(time.Millisecond) // every caller is parked on the schedule before the first arrival
	deadline := start + int64(ph.duration)

	// Open: one pacer wakes at each arrival's due time and hands it to
	// whichever producer caller is free; the channel holds every arrival,
	// so the pacer never waits for a caller and a slow service sees the
	// load it was due anyway. Closed: callers send back to back.
	var jobs chan int64
	if ph.due != nil {
		jobs = make(chan int64, len(ph.due))
		prodWG.Add(1)
		go func() {
			defer prodWG.Done()
			defer close(jobs)
			for _, d := range ph.due {
				due := start + d
				if err := g.pace.sleep(time.Duration(due - now())); err != nil {
					failed(fmt.Errorf("pacer: %w", err))
					return
				}
				jobs <- due
			}
		}()
	}
	for pi := range g.producers {
		prodWG.Add(1)
		go func() {
			defer prodWG.Done()
			bufs := make([][]byte, g.p.m)
			for k := range bufs {
				bufs[k] = make([]byte, g.p.valueLen)
			}
			for call := 0; ; {
				var due int64
				if jobs != nil {
					var ok bool
					if due, ok = <-jobs; !ok {
						return
					}
					g.producers[pi].lateLat = append(g.producers[pi].lateLat, now()-due)
				} else {
					if due = now(); due >= deadline {
						return
					}
					if acked.Load()-delivered.Load() >= svcCredit {
						time.Sleep(svcEmptyBackoff)
						continue
					}
				}
				n, err := g.send(pi, call, bufs, due)
				acked.Add(int64(n))
				call++
				if err != nil && !failed(err) {
					return
				}
			}
		}()
	}
	for ci := range g.consumers {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			timer, err := newHRTimer()
			if err != nil {
				failed(err)
				return
			}
			defer timer.close()
			empties := 0
			for call := 0; ; call++ {
				if done := prodDone.Load(); done != 0 {
					if delivered.Load() >= acked.Load() || now()-done > int64(svcDrainTimeout) {
						return
					}
				}
				n, err := g.receive(ci, call)
				if err != nil && !failed(err) {
					return
				}
				if n == 0 {
					// Back off twice as long after each empty answer in a
					// row, as a polling client does, so that the callers the
					// arrival rate does not need go quiet instead of
					// loading the service with null dequeues.
					if err := timer.sleep(svcEmptyBackoff << min(empties, svcBackoffDoublings)); err != nil {
						failed(err)
						return
					}
					empties++
					continue
				}
				empties = 0
				delivered.Add(int64(n))
			}
		}()
	}
	prodWG.Wait()
	end := now()
	// A closed trial's throughput is what moved while producers were
	// sending; the drain that follows only serves the check.
	r := trialResult{wall: time.Duration(end - start), ops: acked.Load() + delivered.Load()}
	prodDone.Store(end)
	consWG.Wait()
	if ph.due != nil {
		r.ops = acked.Load() + delivered.Load()
	}

	r.failed = failures.Load()
	g.finish(&r)
	return r, firstErr
}

// begin clears what the previous trial left in the callers.
func (g *generator) begin() {
	g.seq = make([]uint64, svcCallers)
	for i := range g.producers {
		g.producers[i].reset()
		g.consumers[i].reset()
	}
}

// finish gathers the callers' samples into r and checks what the trial
// delivered.
func (g *generator) finish(r *trialResult) {
	logs := r.collect(append(append([]caller(nil), g.producers...), g.consumers...))
	// This trial's producers follow every earlier trial's, which sent
	// nothing now: a straggler from one of those is unknown.
	sent := append(make([]uint64, g.trials*svcCallers), g.seq...)
	r.verdict = checkDelivery(sent, logs...)
	g.trials++
}

// solo runs one solo trial: a single caller with one request in flight. It
// enqueues a frame, waits for the acknowledgement, then dequeues until the
// frame's values are back, and starts over, for d. Nothing sleeps and no
// timer fires: whenever the caller waits the server runs, so the CPU the two
// share never goes idle, and a call's duration is what the client, the wire
// and the server take to serve it with nothing queued ahead of it.
func (g *generator) solo(d time.Duration) (trialResult, error) {
	g.begin()
	bufs := make([][]byte, g.p.m)
	for k := range bufs {
		bufs[k] = make([]byte, g.p.valueLen)
	}
	var r trialResult
	var firstErr error
	start := now()
	for call := 0; firstErr == nil && now()-start < int64(d); call++ {
		n, err := g.send(0, call, bufs, now())
		r.ops += int64(n)
		if err != nil {
			r.failed++
			firstErr = err
		}
		for got, empties := 0, 0; got < n && firstErr == nil; {
			k, err := g.receive(0, call)
			switch {
			case err != nil:
				r.failed++
				firstErr = err
			case k > 0:
				got, empties = got+k, 0
				r.ops += int64(k)
			default:
				if empties++; empties > soloMaxEmpties {
					r.failed++
					firstErr = fmt.Errorf("%d empty answers in a row with %d acknowledged values in the queue", empties, n-got)
				}
			}
		}
	}
	r.wall = time.Duration(now() - start)
	g.finish(&r)
	return r, firstErr
}

// openTrial runs open trial number i, of the given length, and returns it
// with the CPU time the server spent on it.
func (g *generator) openTrial(i int, d time.Duration, srv *child) (trialResult, time.Duration, error) {
	due := poissonSchedule(g.seed, i, g.p.openRate, int(g.p.openRate*d.Seconds()))
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return trialResult{}, 0, err
	}
	r, opErr := g.trial(phase{due: due})
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return r, 0, err
	}
	return r, cpu1 - cpu0, opErr
}

// svcSetup builds and starts the server, connects the generator and warms
// both up with a short closed trial.
func svcSetup(p svcParams, cfg runConfig, tr *trace) (*child, *generator, error) {
	bin, err := buildBinary(cfg.root, "repro/cmd/queued")
	if err != nil {
		return nil, nil, err
	}
	srv, err := startServer(cfg.root, bin,
		"-shards", fmt.Sprint(svcShards), "-backend", "bounded", "-window", fmt.Sprint(svcWindow))
	if err != nil {
		return nil, nil, err
	}
	g, err := newGenerator(p, cfg.seed, srv.addr, tr)
	if err != nil {
		srv.stop()
		return nil, nil, err
	}
	if r, err := g.trial(phase{duration: cfg.sz.svcWarmup}); err != nil || !r.verdict.ok() {
		g.close()
		srv.stop()
		return nil, nil, fmt.Errorf("warm-up: %v, %s", err, r.verdict)
	}
	return srv, g, nil
}

// runSvc runs one service workload in cycles of three trials: an open one
// (Poisson arrivals: the server's CPU per operation), a closed one (all
// callers back to back: throughput) and a solo one (one request in flight:
// latency). With a trace it runs open and solo trials only, the open ones
// with tracing off and on, reads the server's own counts, and drives the
// null server for the generator's floor.
func runSvc(p svcParams, cfg runConfig, tr *trace) (*report, error) {
	// The generator and the server share one CPU. On a virtual machine a
	// wake-up that crosses CPUs goes through the host, and how long the
	// host takes varies from minute to minute by more than any change to
	// this repository would move a latency; on one CPU every wake-up is a
	// context switch the guest does by itself. It also makes that CPU the
	// shared resource the issue's predictions are about: CPU freed in the
	// server is CPU the callers get.
	unpin, err := pinToOneCPU()
	if err != nil {
		return nil, err
	}
	defer unpin()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep := newReport()
	var srv *child
	var g *generator
	setups := cfg.sz.setups
	if tr != nil {
		setups = 1 // a traced run does not report set-up time
	}
	for i := range setups {
		if i > 0 {
			g.close()
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, g, err = svcSetup(p, cfg, tr); err != nil {
			return nil, err
		}
		rep.sample("setup_s", time.Since(t0).Seconds())
	}
	defer srv.stop()
	defer g.close()

	if tr != nil {
		return rep, tracedSvc(p, cfg, tr, rep, srv, g)
	}

	// Trials have a fixed length; how long the run measures sets how many
	// cycles there are, so a longer run steadies the medians without
	// changing what one trial is. The three kinds alternate, so that a noisy
	// stretch of the machine falls on a few trials of each kind rather than
	// on every trial of one.
	cycles := max(1, int(cfg.duration/(3*cfg.sz.svcTrial)))
	latSamples := 0
	for i := range cycles {
		r, cpu, err := g.openTrial(i, cfg.sz.svcTrial, srv)
		if err := rep.checkSvc(r, err); err != nil {
			return nil, err
		}
		rep.sample("cpu_us_per_op", usPerOp(cpu, r.ops))

		r, err = g.trial(phase{duration: cfg.sz.svcTrial})
		if err := rep.checkSvc(r, err); err != nil {
			return nil, err
		}
		rep.sample("ops_per_s", float64(r.ops)/r.wall.Seconds())

		r, err = g.solo(cfg.sz.svcTrial)
		if err := rep.checkSvc(r, err); err != nil {
			return nil, err
		}
		rep.sample("op_p50_us", r.op.p50)
		rep.sample("deliver_p50_us", r.deliver.p50)
		latSamples = r.op.n
	}
	rss, err := peakRSSMiB(srv.pid())
	if err != nil {
		return nil, err
	}
	rep.sample("peak_rss_mb", rss)
	closed, _ := rep.metric("ops_per_s")
	offered := 2 * p.openRate * float64(p.m)
	rep.note("%d cycles of an open, a closed and a solo trial of %s each; op latency over %d samples per solo trial", cycles, cfg.sz.svcTrial, latSamples)
	rep.note("closed trials %.0f ops/s = %.2fx the open trials' %.0f (must be >= %.1fx)", closed, closed/offered, offered, closedOverOpenMin)
	if closed < closedOverOpenMin*offered {
		rep.note("WARNING the open trials run above 40%% of capacity")
	}
	return rep, nil
}

// tails records an untraced trial's 99th percentiles. They are per-layer
// metrics: their run-to-run spread is too wide to gate on (README.md).
func (r *report) tails(t trialResult) {
	r.sample("op_p99_us", t.op.p99)
	r.sample("deliver_p99_us", t.deliver.p99)
}

// openLatency records an untraced open trial's latencies, from a frame's
// due time. They are per-layer metrics too: on a shared machine they spread
// wider than any bound (README.md).
func (r *report) openLatency(t trialResult) {
	r.sample("open.op_p50_us", t.op.p50)
	r.sample("open.op_p99_us", t.op.p99)
	r.sample("open.deliver_p50_us", t.deliver.p50)
	r.sample("open.deliver_p99_us", t.deliver.p99)
}

// checkSvc folds a service trial into the run; err is the first operation
// that failed in it, if any. A trial that moved nothing has no numbers to
// report: that ends the run.
func (r *report) checkSvc(t trialResult, err error) error {
	if t.ops == 0 {
		return fmt.Errorf("a trial moved no values: %v", err)
	}
	r.check(t)
	if err != nil {
		r.note("%d operations failed in one trial, the first with: %v", t.failed, err)
	}
	return nil
}

// tracedSvc is the traced pass of a service workload.
func tracedSvc(p svcParams, cfg runConfig, tr *trace, rep *report, srv *child, g *generator) error {
	d := cfg.sz.svcTrial
	var cpuPlain, cpuTraced, op50, late50, late99, lateFrac []float64
	genCPU, genOps := time.Duration(0), int64(0)
	for start, i := time.Now(), 0; i < cfg.sz.tracedTrials || time.Since(start) < cfg.duration/2; i++ {
		g.setTraced(false)
		r, cpu, err := g.openTrial(2*i, d, srv)
		if err := rep.checkSvc(r, err); err != nil {
			return err
		}
		rep.openLatency(r)
		cpuPlain = append(cpuPlain, usPerOp(cpu, r.ops))
		op50 = append(op50, r.op.p50)
		late50, late99 = append(late50, r.late.p50), append(late99, r.late.p99)
		lateFrac = append(lateFrac, ratio(r.lateOver, int64(r.late.n)))

		g.setTraced(true)
		self0 := selfCPU()
		r, cpu, err = g.openTrial(2*i+1, d, srv)
		genCPU, genOps = genCPU+selfCPU()-self0, genOps+r.ops
		if err := rep.checkSvc(r, err); err != nil {
			return err
		}
		cpuTraced = append(cpuTraced, usPerOp(cpu, r.ops))

		g.setTraced(false)
		r, err = g.solo(d)
		if err := rep.checkSvc(r, err); err != nil {
			return err
		}
		rep.tails(r)
	}
	for i := range g.producers {
		tr.add(g.producers[i].spans)
		tr.add(g.consumers[i].spans)
	}
	rep.set("trace.overhead_frac", median(cpuTraced)/median(cpuPlain)-1)
	rep.set("gen.late_p50_us", median(late50))
	rep.set("gen.late_p99_us", median(late99))
	rep.set("gen.late_frac", median(lateFrac))
	rep.set("client.cpu_us_per_op", usPerOp(genCPU, genOps))
	for name, ns := range map[string][]int64{
		"server.wait": g.stages.wait, "server.fabric": g.stages.fabric,
		"server.reply": g.stages.reply, "client.net": g.stages.net,
	} {
		s := summarize(ns)
		rep.set(name+"_p50_us", s.p50)
		rep.set(name+"_p99_us", s.p99)
	}
	rep.note("%d traced requests decomposed into server stages", len(g.stages.wait))
	if median(late99) > median(op50) {
		rep.note("UNRESOLVED gen.late_p99_us %.0f exceeds open.op_p50_us %.0f: this workload's open-loop latencies measure the generator",
			median(late99), median(op50))
	}

	// The server's own counts, read once the load connections are closed
	// and their handle leases have folded into the shard statistics.
	g.close()
	if err := serverCounts(srv.addr, rep); err != nil {
		return err
	}

	// The floor: the identical generator, at the same rate, against a
	// server that does nothing.
	floor, err := generatorFloor(p, cfg)
	if err != nil {
		return fmt.Errorf("null server: %w", err)
	}
	rep.set("gen.floor_p50_us", floor.open.p50)
	rep.set("gen.floor_p99_us", floor.open.p99)
	rep.set("gen.floor_solo_p50_us", floor.solo.p50)
	return nil
}

// serverCounts reads the server's Snapshot over a fresh connection.
func serverCounts(addr string, rep *report) error {
	c, err := server.Dial(addr)
	if err != nil {
		return fmt.Errorf("dial for stats: %w", err)
	}
	defer c.Close()
	raw, err := c.Stats()
	if err != nil {
		return fmt.Errorf("Stats: %w", err)
	}
	var snap server.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("Stats: %w", err)
	}
	st := snap.Server
	var pairs, enqueues int64
	for _, s := range snap.Fabric.ShardStats {
		pairs += s.Pairs
		enqueues += s.Enqueues
	}
	rep.set("server.ops_per_fabric_batch", ratio(st.FabricBatchOps, st.FabricBatches))
	rep.set("server.busy_frac", ratio(st.Busy, st.Requests))
	rep.set("server.frames_per_value", ratio(st.Frames, st.Enqueues+st.Dequeues))
	rep.set("shard.null_deq_frac", ratio(st.EmptyDequeues, st.EmptyDequeues+st.Dequeues))
	rep.set("shard.pair_frac", ratio(pairs, enqueues))
	rep.set("shard.backlog_end", float64(snap.Fabric.Len))
	return nil
}

// floors are the enqueue latencies the generator sees against the null
// server, in an open trial and in a solo one.
type floors struct{ open, solo latSummary }

// generatorFloor drives bench/nullserver with the workload's generator, at
// its open rate and solo, and returns the enqueue latency it sees: what the
// generator, the Client and loopback cost with no queue behind them.
func generatorFloor(p svcParams, cfg runConfig) (floors, error) {
	bin, err := buildBinary(cfg.root, "repro/bench/nullserver")
	if err != nil {
		return floors{}, err
	}
	srv, err := startServer(cfg.root, bin)
	if err != nil {
		return floors{}, err
	}
	defer srv.stop()
	g, err := newGenerator(p, cfg.seed, srv.addr, nil)
	if err != nil {
		return floors{}, err
	}
	defer g.close()
	if r, err := g.trial(phase{duration: cfg.sz.svcWarmup}); err != nil || !r.verdict.ok() {
		return floors{}, fmt.Errorf("warm-up: %v, %s", err, r.verdict)
	}
	due := poissonSchedule(cfg.seed, 0, p.openRate, int(p.openRate*cfg.sz.floorSec))
	open, err := g.trial(phase{due: due})
	if err != nil || !open.verdict.ok() {
		return floors{}, fmt.Errorf("open: %v, %s", err, open.verdict)
	}
	solo, err := g.solo(time.Duration(cfg.sz.floorSec * float64(time.Second)))
	if err != nil || !solo.verdict.ok() {
		return floors{}, fmt.Errorf("solo: %v, %s", err, solo.verdict)
	}
	return floors{open: open.op, solo: solo.op}, nil
}
