package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LoadConfig parameterizes one open-loop run against a queue service.
//
// The generator is open-loop in the standard sense: enqueue send times are
// scheduled from the target rate alone, independent of how fast the
// service answers, and every latency is measured from the op's *scheduled*
// time. When the service falls behind, queueing delay therefore shows up
// in the percentiles instead of silently throttling the offered load —
// the coordinated-omission-free methodology. Experiments T13 and T15 run
// it against in-process servers; the service's own benchmark, which
// drives a real queued, is bench/.
type LoadConfig struct {
	Rate      int           // offered enqueue rate, ops/s across all producers (> 0)
	Duration  time.Duration // producing phase length
	Producers int           // producer connections (default 2)
	Consumers int           // consumer connections (default 2)
	ValueSize int           // payload bytes; floored at MinValueSize
	Window    int           // max in-flight enqueue frames per producer connection (default 32)

	// Queue names the target queue. Empty drives the default queue 0;
	// otherwise every producer and consumer connection Opens the named
	// queue and all traffic rides the queue-qualified opcodes, so several
	// RunLoad calls with distinct names load independent tenants of one
	// server — each with its own exact conservation check (a value of one
	// queue surfacing in another would be reported Foreign there and Lost
	// here).
	Queue string

	// DrainTimeout bounds how long consumers may chase the acked backlog
	// after producers stop (default 10s). Values still unconsumed at the
	// deadline are reported Lost.
	DrainTimeout time.Duration
}

// MinValueSize fits the conservation key, the schedule timestamp, and the
// run nonce that separates this run's values from a previous run's
// leftover backlog on a long-lived server.
const MinValueSize = 24

func (cfg *LoadConfig) setDefaults() error {
	if cfg.Rate <= 0 {
		return errors.New("loadgen: Rate must be positive")
	}
	if cfg.Duration <= 0 {
		return errors.New("loadgen: Duration must be positive")
	}
	if cfg.Producers <= 0 {
		cfg.Producers = 2
	}
	if cfg.Consumers <= 0 {
		cfg.Consumers = 2
	}
	if cfg.ValueSize < MinValueSize {
		cfg.ValueSize = MinValueSize
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if len(cfg.Queue) > MaxQueueName {
		return fmt.Errorf("loadgen: queue name %d bytes exceeds the %d-byte cap", len(cfg.Queue), MaxQueueName)
	}
	return nil
}

// openTarget resolves cfg.Queue on a fresh connection: queue id 0 for the
// default queue, else an OpOpen round trip.
func openTarget(c *Client, cfg LoadConfig) (uint32, error) {
	if cfg.Queue == "" {
		return 0, nil
	}
	nq, err := c.Open(cfg.Queue)
	if err != nil {
		return 0, err
	}
	return nq.ID(), nil
}

// LoadResult is the outcome of one open-loop run.
type LoadResult struct {
	Config  LoadConfig    `json:"config"`
	Elapsed time.Duration `json:"elapsed"`

	Offered int64 `json:"offered"` // enqueues scheduled and sent
	Acked   int64 `json:"acked"`   // enqueues acknowledged StatusOK
	Errors  int64 `json:"errors"`  // enqueues failing any other way

	Consumed int64 `json:"consumed"` // values dequeued by the consumers
	Foreign  int64 `json:"foreign"`  // dequeued values not produced by this run (pre-existing backlog)
	Lost     int64 `json:"lost"`     // acked values never dequeued within DrainTimeout
	Dup      int64 `json:"dup"`      // values dequeued more than once

	EnqLatMs []float64 `json:"-"` // scheduled-send to enqueue-ack, ms
	E2ELatMs []float64 `json:"-"` // scheduled-send to consumer-dequeue, ms
}

// AchievedRate returns acknowledged enqueues per second over the producing
// phase.
func (r *LoadResult) AchievedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Acked) / r.Elapsed.Seconds()
}

// Conserved reports whether the run kept the queue's conservation
// invariant observable from outside: nothing acknowledged was lost and
// nothing was delivered twice.
func (r *LoadResult) Conserved() bool { return r.Lost == 0 && r.Dup == 0 }

// enqMeta tags an in-flight enqueue frame with its sequence number and
// schedule slot. Metas live in a fixed per-producer slab that doubles as
// the in-flight window: the producer takes one to send a frame (blocking
// when all are out), the collector returns it once the frame's fate is
// recorded — so pacing allocates no per-frame metadata and boxes no
// interface values.
type enqMeta struct {
	seq   int64
	sched time.Time
}

// producerState accumulates one producer connection's outcome. The
// collector goroutine owns the mutable fields until runProducer returns.
type producerState struct {
	acked    []atomic.Bool // seq -> acknowledged
	latMs    []float64
	offered  int64
	ackCount int64
	errs     int64
}

// consumerOut is one consumer connection's haul.
type consumerOut struct {
	keys    []uint64 // keys of this run's values, in dequeue order
	latMs   []float64
	foreign int64 // dequeued values not stamped with this run's nonce
}

// RunLoad drives one open-loop run against the queue service at addr.
//
// Producers pace enqueues at the configured rate; each value carries a
// (producer, sequence) key, its schedule timestamp, and a per-run nonce
// (so leftover backlog from an earlier run reads as Foreign, not as this
// run's values). Consumers dequeue
// concurrently and, after the producing phase, chase the acknowledged
// backlog until it is fully consumed or DrainTimeout expires. The result
// reports exact conservation: every acknowledged value must be dequeued
// exactly once.
func RunLoad(addr string, cfg LoadConfig) (*LoadResult, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}

	// Generous over-allocation of the per-producer sequence space: pacing
	// can only fire the planned number of frames (catch-up sends replace
	// skipped slots, they do not add any).
	perProducer := float64(cfg.Rate) / float64(cfg.Producers)
	gap := time.Duration(float64(time.Second) / perProducer)
	if gap <= 0 {
		gap = time.Nanosecond
	}
	maxSeq := int64(perProducer*cfg.Duration.Seconds()) + 16

	// The nonce stamps every value this run produces. Without it, a second
	// run against a server still holding an interrupted run's backlog
	// would mistake the leftovers for its own keys and report phantom
	// duplicates.
	nonce := uint64(time.Now().UnixNano())

	var (
		prodWG, consWG sync.WaitGroup
		prods          = make([]*producerState, cfg.Producers)
		runErr         = make(chan error, cfg.Producers+cfg.Consumers)
		ackedTotal     atomic.Int64 // final once producers join
		consumedOurs   atomic.Int64 // this run's values seen by consumers
		stopConsumers  = make(chan struct{})
		consumedCh     = make(chan consumerOut, cfg.Consumers)
	)

	ours := func(key, vnonce uint64) bool {
		p, seq := int(key>>40), int64(key&(1<<40-1))
		return vnonce == nonce && p < cfg.Producers && seq < maxSeq
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)

	for p := 0; p < cfg.Producers; p++ {
		// Latency samples are preallocated at the sequence-space bound (one
		// sample per acked value) so the hot ack path never grows the slice:
		// a measurement harness that allocates per sample would smear its own
		// GC over the latencies it reports.
		ps := &producerState{
			acked: make([]atomic.Bool, maxSeq),
			latMs: make([]float64, 0, maxSeq),
		}
		prods[p] = ps
		prodWG.Add(1)
		go func(p int, ps *producerState) {
			defer prodWG.Done()
			if err := runProducer(addr, cfg, p, ps, nonce, deadline, gap, &ackedTotal); err != nil {
				runErr <- fmt.Errorf("producer %d: %w", p, err)
			}
		}(p, ps)
	}

	for c := 0; c < cfg.Consumers; c++ {
		consWG.Add(1)
		go func(c int) {
			defer consWG.Done()
			out, err := runConsumer(addr, cfg, stopConsumers, ours, &consumedOurs)
			if err != nil {
				runErr <- fmt.Errorf("consumer %d: %w", c, err)
				return
			}
			consumedCh <- out
		}(c)
	}

	prodWG.Wait()
	producing := time.Since(start)

	// Producers are done, so ackedTotal is final: give the consumers until
	// DrainTimeout to account for every acknowledged value.
	drainDeadline := time.Now().Add(cfg.DrainTimeout)
	for consumedOurs.Load() < ackedTotal.Load() && time.Now().Before(drainDeadline) {
		time.Sleep(time.Millisecond)
	}
	close(stopConsumers)
	consWG.Wait()
	close(consumedCh)
	close(runErr)

	for err := range runErr {
		return nil, err
	}

	res := &LoadResult{Config: cfg, Elapsed: producing}
	seen := make(map[uint64]int)
	for out := range consumedCh {
		res.Consumed += int64(len(out.keys)) + out.foreign
		res.Foreign += out.foreign
		res.E2ELatMs = append(res.E2ELatMs, out.latMs...)
		for _, k := range out.keys {
			seen[k]++
		}
	}
	for p, ps := range prods {
		res.Offered += ps.offered
		res.Acked += ps.ackCount
		res.Errors += ps.errs
		res.EnqLatMs = append(res.EnqLatMs, ps.latMs...)
		for seq := int64(0); seq < ps.offered; seq++ {
			if !ps.acked[seq].Load() {
				continue
			}
			n := seen[loadKey(p, seq)]
			if n == 0 {
				res.Lost++
			} else if n > 1 {
				res.Dup += int64(n - 1)
			}
			delete(seen, loadKey(p, seq))
		}
	}
	// Whatever remains carries this run's nonce but was never acknowledged
	// to a producer: an ack lost to a connection failure. Report it with
	// the foreign backlog rather than as a conservation violation.
	for _, n := range seen {
		res.Foreign += int64(n)
	}
	return res, nil
}

// loadKey packs a producer index and sequence number into the value key.
func loadKey(producer int, seq int64) uint64 {
	return uint64(producer)<<40 | uint64(seq)
}

// runProducer paces enqueues open-loop until deadline.
func runProducer(addr string, cfg LoadConfig, p int, ps *producerState, nonce uint64,
	deadline time.Time, gap time.Duration, ackedTotal *atomic.Int64) error {
	c, err := Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	qid, err := openTarget(c, cfg)
	if err != nil {
		return err
	}

	// Completions arrive on one shared channel; the meta slab bounds the
	// in-flight window (the producer blocks taking a meta when all Window
	// of them are out). done's capacity exceeds the window so the client's
	// read loop can never block delivering a completion.
	done := make(chan *call, cfg.Window+1)
	tokens := make(chan *enqMeta, cfg.Window)
	for i := 0; i < cfg.Window; i++ {
		tokens <- new(enqMeta)
	}
	var collectorWG sync.WaitGroup
	collectorWG.Add(1)
	go func() {
		defer collectorWG.Done()
		for cl := range done {
			meta := cl.tag.(*enqMeta)
			switch {
			case cl.err != nil:
				ps.errs++
			case cl.f.kind == StatusOK:
				ps.acked[meta.seq].Store(true)
				ps.latMs = append(ps.latMs, float64(time.Since(meta.sched))/float64(time.Millisecond))
				ps.ackCount++
				ackedTotal.Add(1)
			default:
				ps.errs++
			}
			putCall(cl)
			tokens <- meta // frees the window slot; the meta is reused
		}
	}()

	// One value buffer, reused across frames: the client copies it into
	// its write buffer before startParts returns. The queue-id prefix is
	// fixed per connection, so it is encoded once (empty for queue 0).
	value := make([]byte, cfg.ValueSize)
	binary.BigEndian.PutUint64(value[16:24], nonce)
	op, pre := OpEnqueue, []byte(nil)
	if qid != 0 {
		op |= OpQueueFlag
		pre = binary.BigEndian.AppendUint32(nil, qid)
	}
	seq, broken := int64(0), false
	next := time.Now()
	for time.Now().Before(deadline) && seq < int64(len(ps.acked)) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		meta := <-tokens // blocks when the window is full; the delay lands in the latency
		binary.BigEndian.PutUint64(value[0:8], loadKey(p, seq))
		binary.BigEndian.PutUint64(value[8:16], uint64(next.UnixNano()))
		*meta = enqMeta{seq: seq, sched: next}
		if _, err := c.startParts(op, done, meta, pre, value); err != nil {
			tokens <- meta
			ps.errs++
			broken = true
			break
		}
		ps.offered++
		seq++
		if err := c.flush(); err != nil {
			ps.errs++
			broken = true
			break
		}
		next = next.Add(gap)
	}
	if broken {
		// Force the read loop down so every pending call completes with an
		// error; otherwise the window drain below could wait forever on
		// replies that will never come.
		c.Close()
	}

	// Reclaiming the whole meta slab proves the pipeline is empty; then the
	// collector can be stopped.
	for i := 0; i < cfg.Window; i++ {
		<-tokens
	}
	close(done)
	collectorWG.Wait()
	return nil
}

// runConsumer dequeues until told to stop, recording end-to-end latency
// (scheduled enqueue time to dequeue completion) for values of this run.
func runConsumer(addr string, cfg LoadConfig, stop <-chan struct{},
	ours func(key, nonce uint64) bool, consumedOurs *atomic.Int64) (consumerOut, error) {
	var out consumerOut
	// Seeded with room for a fair share of the backlog so the recording
	// path mostly appends in place; growth past this is amortized doubling.
	out.keys = make([]uint64, 0, 4096)
	out.latMs = make([]float64, 0, 4096)
	c, err := Dial(addr)
	if err != nil {
		return out, err
	}
	defer c.Close()
	qid, err := openTarget(c, cfg)
	if err != nil {
		return out, err
	}
	record := func(v []byte) {
		if len(v) < MinValueSize {
			out.foreign++ // malformed for this run's layout: not ours
			return
		}
		key := binary.BigEndian.Uint64(v[0:8])
		if !ours(key, binary.BigEndian.Uint64(v[16:24])) {
			out.foreign++
			return
		}
		out.keys = append(out.keys, key)
		sched := time.Unix(0, int64(binary.BigEndian.Uint64(v[8:16])))
		out.latMs = append(out.latMs, float64(time.Since(sched))/float64(time.Millisecond))
		consumedOurs.Add(1)
	}
	for {
		v, ok, err := c.dequeue(qid)
		if err != nil {
			return out, err
		}
		if ok {
			record(v)
		} else {
			select {
			case <-stop:
				return out, nil
			default:
				// The fabric certified empty: producers are pacing slower
				// than we drain. Back off briefly instead of spinning.
				time.Sleep(200 * time.Microsecond)
				continue
			}
		}
	}
}
