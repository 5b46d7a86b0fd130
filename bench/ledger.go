//go:build linux

package main

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro"
	"repro/bench/wirescan"
	"repro/internal/metrics"
	"repro/internal/server"
)

// The ledger drives one seeded op stream — ledgerValueLen-byte values,
// enqueue and dequeue alternating at depth ledgerDepth, one worker — through
// each boundary of the stack in turn, from the outside in, once with
// single operations (m1) and once in batches of batchM (m32). A layer's
// self cost is its boundary minus the boundary beneath it. Every call is
// wrapped in a span; the span of operation i at one boundary has the span
// of operation i at the next boundary out as its parent, so the trace file
// nests the same way the subtraction does.

// port is one worker's access to a queue of byte values at an in-process
// boundary.
type port struct {
	name       string
	enq        func([]byte) error
	deq        func() ([]byte, bool)
	enqBatch   func([][]byte) error
	deqBatch   func(int) [][]byte
	setCounter func(*metrics.Counter)
	blocks     func() int64 // blocks the queue holds, or nil if the boundary cannot tell
	close      func()
}

func corePort() (port, error) {
	q, err := repro.NewQueue[[]byte](ledgerProcs)
	if err != nil {
		return port{}, err
	}
	h := q.MustHandle(0)
	return port{
		name:       "core",
		enq:        func(v []byte) error { h.Enqueue(v); return nil },
		deq:        h.Dequeue,
		enqBatch:   func(vs [][]byte) error { h.EnqueueBatch(vs); return nil },
		deqBatch:   func(n int) [][]byte { vs, _ := h.DequeueBatch(n); return vs },
		setCounter: h.SetCounter,
		blocks:     q.BlocksInstalled,
		close:      func() {},
	}, nil
}

func boundedPort() (port, error) {
	q, err := repro.NewBoundedQueue[[]byte](ledgerProcs)
	if err != nil {
		return port{}, err
	}
	h := q.MustHandle(0)
	return port{
		name:       "bounded",
		enq:        func(v []byte) error { h.Enqueue(v); return nil },
		deq:        h.Dequeue,
		enqBatch:   func(vs [][]byte) error { h.EnqueueBatch(vs); return nil },
		deqBatch:   func(n int) [][]byte { vs, _ := h.DequeueBatch(n); return vs },
		setCounter: h.SetCounter,
		blocks:     q.TotalBlocks,
		close:      func() {},
	}, nil
}

// ledgerFabric is the fabric every boundary from shard outwards runs on:
// bounded shards of ledgerProcs handles each (the fabric keeps one handle
// per shard for itself), so the only thing that differs from the bounded
// boundary is the fabric.
func ledgerFabric(k int) (*repro.ShardedQueue[[]byte], error) {
	return repro.NewShardedQueue[[]byte](k,
		repro.WithShardBackend(repro.ShardBackendBounded),
		repro.WithShardMaxHandles(ledgerProcs-1))
}

func shardPort(k int) (port, error) {
	q, err := ledgerFabric(k)
	if err != nil {
		return port{}, err
	}
	h, err := q.Acquire()
	if err != nil {
		return port{}, err
	}
	return port{
		name:       fmt.Sprintf("shard.k%d", k),
		enq:        h.Enqueue,
		deq:        h.Dequeue,
		enqBatch:   h.EnqueueBatch,
		deqBatch:   func(n int) [][]byte { vs, _ := h.DequeueBatch(n); return vs },
		setCounter: h.SetCounter,
		close:      h.Release,
	}, nil
}

// stream is the ledger's seeded input: the prefill and the values the
// pairs enqueue, shared by every cell.
type stream struct {
	pool    []byte
	prefill [][]byte // producer 1
	values  [][]byte // producer 0, in enqueue order
}

func newStream(seed int64, pairs int) *stream {
	s := &stream{pool: payloadPool(seed)}
	mk := func(producer, n int) [][]byte {
		out := make([][]byte, n)
		backing := make([]byte, n*ledgerValueLen)
		for i := range out {
			out[i] = backing[i*ledgerValueLen : (i+1)*ledgerValueLen : (i+1)*ledgerValueLen]
			fillValue(out[i], s.pool, makeID(producer, uint64(i)), 0)
		}
		return out
	}
	s.prefill, s.values = mk(1, ledgerDepth), mk(0, pairs)
	return s
}

// check verifies that the values received, then the values left in the
// queue, are exactly the prefill and the stream, each once and in order.
func (s *stream) check(logs ...[]uint64) verdict {
	return checkDelivery([]uint64{uint64(len(s.values)), uint64(len(s.prefill))}, logs...)
}

// idOf reads a received value's id, or an id no producer has if the bytes
// are not a value of this stream.
func (s *stream) idOf(v []byte) uint64 {
	id, _, ok := readValue(v, s.pool)
	if !ok {
		return ^uint64(0)
	}
	return id
}

// cell is one (boundary, batch size) measurement.
type cell struct {
	ops                 int64 // values enqueued + values dequeued
	ns                  int64 // in-process: sum of the spans; over a socket: wall time of the cell
	mallocs, bytes      uint64
	steps, cas, casFail int64
	maxOpSteps          int64
	blocksPerOp         float64
	blocksEnd           int64
	spans               []span // one per call, in op order
	verdict             verdict
}

func (c *cell) metrics(prefix string, inProcess bool, out map[string]float64) {
	ops := float64(c.ops)
	out[prefix+".ns_per_op"] = float64(c.ns) / ops
	out[prefix+".allocs_per_op"] = float64(c.mallocs) / ops
	out[prefix+".bytes_per_op"] = float64(c.bytes) / ops
	if inProcess {
		out[prefix+".steps_per_op"] = float64(c.steps) / ops
		out[prefix+".cas_per_op"] = float64(c.cas) / ops
		out[prefix+".cas_fail_frac"] = ratio(c.casFail, c.cas)
		out[prefix+".max_op_steps"] = float64(c.maxOpSteps)
	}
}

// memDelta runs fn and returns the heap objects and bytes allocated
// meanwhile, by every goroutine of the process.
func memDelta(fn func() error) (mallocs, bytes uint64, err error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, err
}

// drive pushes the stream through p in batches of m, recording a span per
// call into c.spans and the received ids into log.
func drive(p port, s *stream, m int, names spanNames, c *cell, log *[]uint64) error {
	for i := 0; i < len(s.values); i += m {
		op := uint64(2 * (i / m))
		if m == 1 {
			t0 := now()
			err := p.enq(s.values[i])
			t1 := now()
			if err != nil {
				return err
			}
			c.spans = append(c.spans, span{name: names.enq, op: op, parent: -1, start: t0, end: t1})
			t0 = now()
			v, ok := p.deq()
			t1 = now()
			if !ok {
				return errors.New("dequeue found the queue empty at depth 1024")
			}
			c.spans = append(c.spans, span{name: names.deq, op: op + 1, parent: -1, start: t0, end: t1})
			*log = append(*log, s.idOf(v))
			c.ops += 2
			continue
		}
		batch := s.values[i:min(i+m, len(s.values))]
		t0 := now()
		err := p.enqBatch(batch)
		t1 := now()
		if err != nil {
			return err
		}
		c.spans = append(c.spans, span{name: names.enq, op: op, parent: -1, start: t0, end: t1})
		t0 = now()
		vs := p.deqBatch(len(batch))
		t1 = now()
		c.spans = append(c.spans, span{name: names.deq, op: op + 1, parent: -1, start: t0, end: t1})
		for _, v := range vs {
			*log = append(*log, s.idOf(v))
		}
		c.ops += int64(len(batch) + len(vs))
	}
	return nil
}

// inProcessCell measures one in-process boundary: a timing pass on a fresh
// queue with no counter attached, then a counting pass on another.
func inProcessCell(mk func() (port, error), s *stream, m int, tr *trace) (*cell, error) {
	var c *cell
	for _, counting := range []bool{false, true} {
		p, err := mk()
		if err != nil {
			return nil, err
		}
		for _, v := range s.prefill {
			if err := p.enq(v); err != nil {
				return nil, err
			}
		}
		pass := &cell{spans: make([]span, 0, 2*len(s.values)/m+2)}
		names := spanNames{enq: tr.name(p.name + ".Enqueue"), deq: tr.name(p.name + ".Dequeue")}
		if m > 1 {
			names = spanNames{enq: tr.name(p.name + ".EnqueueBatch"), deq: tr.name(p.name + ".DequeueBatch")}
		}
		var counter metrics.Counter
		if counting {
			p.setCounter(&counter)
		}
		var blocks0 int64
		if p.blocks != nil {
			blocks0 = p.blocks()
		}
		log := make([]uint64, 0, len(s.values)+ledgerDepth)
		pass.mallocs, pass.bytes, err = memDelta(func() error { return drive(p, s, m, names, pass, &log) })
		if err != nil {
			return nil, fmt.Errorf("%s m%d: %w", p.name, m, err)
		}
		if p.blocks != nil {
			pass.blocksEnd = p.blocks()
			pass.blocksPerOp = float64(pass.blocksEnd-blocks0) / float64(pass.ops)
		}
		if counting {
			p.setCounter(nil)
		}
		for v, ok := p.deq(); ok; v, ok = p.deq() {
			log = append(log, s.idOf(v))
		}
		p.close()
		pass.verdict = s.check(log)
		if !counting {
			for _, sp := range pass.spans {
				pass.ns += sp.end - sp.start
			}
			c = pass
			continue
		}
		c.steps, c.cas, c.casFail, c.maxOpSteps = counter.TotalSteps(), counter.CASAttempts, counter.CASFailures, counter.MaxOpSteps
		c.verdict.add(pass.verdict)
	}
	return c, nil
}

// socketCell measures a boundary that is reached over loopback, against an
// in-process repro.Serve so that allocations on both sides of the socket
// are counted. raw drives frames built with AppendWireFrame and read with
// the benchmark's scanner; otherwise the public Client is used. Either way
// ledgerInflight requests are in flight, and the cell's ns is wall time:
// with requests overlapping, a span is a latency, not a cost.
func socketCell(raw bool, s *stream, m int, tr *trace) (*cell, error) {
	q, err := ledgerFabric(svcShards)
	if err != nil {
		return nil, err
	}
	srv, err := repro.Serve("127.0.0.1:0", q, repro.WithServeWindow(svcWindow))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	c, err := repro.Dial(srv.Addr().String())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for i := 0; i < len(s.prefill); i += batchM {
		if err := c.EnqueueBatch(s.prefill[i:min(i+batchM, len(s.prefill))]); err != nil {
			return nil, err
		}
	}
	layer := "client"
	if raw {
		layer = "server"
	}
	names := spanNames{enq: tr.name(layer + ".Enqueue"), deq: tr.name(layer + ".Dequeue")}
	if m > 1 {
		names = spanNames{enq: tr.name(layer + ".EnqueueBatch"), deq: tr.name(layer + ".DequeueBatch")}
	}
	calls := 2 * ((len(s.values) + m - 1) / m)
	out := &cell{spans: make([]span, calls)}
	for i := range out.spans {
		out.spans[i] = span{name: names.enq, op: uint64(i), parent: -1}
		if i%2 == 1 {
			out.spans[i].name = names.deq
		}
	}
	var logs [][]uint64
	t0 := now()
	out.mallocs, out.bytes, err = memDelta(func() error {
		var err error
		if raw {
			logs, err = driveFrames(srv.Addr().String(), s, m, out)
		} else {
			logs, err = driveClient(c, s, m, out)
		}
		return err
	})
	out.ns = now() - t0
	if err != nil {
		return nil, fmt.Errorf("%s m%d: %w", layer, m, err)
	}
	var rest []uint64
	for {
		vs, err := c.DequeueBatch(batchM)
		if err != nil {
			return nil, err
		}
		if len(vs) == 0 {
			break
		}
		for _, v := range vs {
			rest = append(rest, s.idOf(v))
		}
	}
	out.verdict = s.check(append(logs, rest)...)
	if !raw {
		// The Client's callers enqueue the stream concurrently, so the
		// order the values entered the queue in is not the stream's.
		out.verdict.reordered = 0
	}
	return out, nil
}

// batchOf is the slice of the stream that call number i (an enqueue, so i
// is even) carries.
func (s *stream) batchOf(i, m int) [][]byte {
	lo := i / 2 * m
	return s.values[lo:min(lo+m, len(s.values))]
}

// driveClient issues the cell's calls through the public Client from
// ledgerInflight goroutines, each taking the next call in turn.
func driveClient(c *repro.QueueClient, s *stream, m int, out *cell) ([][]uint64, error) {
	var next, ops atomic.Int64
	var wg sync.WaitGroup
	logs := make([][]uint64, ledgerInflight)
	errs := make([]error, ledgerInflight)
	for w := range ledgerInflight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(out.spans) {
					return
				}
				sp := &out.spans[i]
				var err error
				var got [][]byte
				sp.start = now()
				switch {
				case i%2 == 0 && m == 1:
					err = c.Enqueue(s.values[i/2])
				case i%2 == 0:
					err = c.EnqueueBatch(s.batchOf(i, m))
				case m == 1:
					var v []byte
					var ok bool
					if v, ok, err = c.Dequeue(); ok {
						got = [][]byte{v}
					}
				default:
					got, err = c.DequeueBatch(m)
				}
				sp.end = now()
				if err != nil {
					errs[w] = err
					return
				}
				if i%2 == 0 {
					ops.Add(int64(len(s.batchOf(i, m))))
				}
				ops.Add(int64(len(got)))
				for _, v := range got {
					logs[w] = append(logs[w], s.idOf(v))
				}
			}
		}()
	}
	wg.Wait()
	out.ops = ops.Load()
	return logs, errors.Join(errs...)
}

// driveFrames issues the cell's calls as raw frames on one connection of
// its own, keeping ledgerInflight of them in flight. Frame i+1 is call i.
func driveFrames(addr string, s *stream, m int, out *cell) ([][]uint64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	in := wirescan.New(conn, server.DefaultMaxFrame)
	var wbuf, payload []byte
	var vals [][]byte
	var count [4]byte
	log := make([]uint64, 0, len(s.values))
	total := len(out.spans)
	for sent, recvd := 0, 0; recvd < total; {
		wbuf = wbuf[:0]
		for ; sent < total && sent-recvd < ledgerInflight; sent++ {
			id := uint64(sent + 1)
			switch {
			case sent%2 == 0 && m == 1:
				wbuf = server.AppendWireFrame(wbuf, id, server.OpEnqueue, s.values[sent/2])
			case sent%2 == 0:
				payload = wirescan.AppendBatch(payload[:0], s.batchOf(sent, m))
				wbuf = server.AppendWireFrame(wbuf, id, server.OpEnqueueBatch, payload)
			case m == 1:
				wbuf = server.AppendWireFrame(wbuf, id, server.OpDequeue)
			default:
				binary.BigEndian.PutUint32(count[:], uint32(m))
				wbuf = server.AppendWireFrame(wbuf, id, server.OpDequeueBatch, count[:])
			}
			out.spans[sent].start = now()
		}
		if len(wbuf) > 0 {
			if _, err := conn.Write(wbuf); err != nil {
				return nil, err
			}
		}
		// One reply at least, and whatever else has already arrived.
		for first := true; first || (in.Buffered() > 0 && recvd < total); first = false {
			f, err := in.Next()
			if err != nil {
				return nil, err
			}
			i := int(f.ID) - 1
			if i < 0 || i >= total || out.spans[i].end != 0 {
				return nil, fmt.Errorf("reply to frame %d, which is not in flight", f.ID)
			}
			out.spans[i].end = now()
			recvd++
			switch {
			case f.Kind != server.StatusOK:
				return nil, fmt.Errorf("frame %d answered with status 0x%02x", f.ID, f.Kind)
			case i%2 == 0:
				out.ops += int64(len(s.batchOf(i, m)))
			case m == 1:
				log = append(log, s.idOf(f.Payload))
				out.ops++
			default:
				if vals, err = wirescan.DecodeBatch(vals[:0], f.Payload); err != nil {
					return nil, err
				}
				for _, v := range vals {
					log = append(log, s.idOf(v))
				}
				out.ops += int64(len(vals))
			}
		}
	}
	return [][]uint64{log}, nil
}

// runLedger fills the per-layer metrics every traced run reports, and adds
// the ledger's spans to tr.
func runLedger(cfg runConfig, tr *trace) (map[string]float64, error) {
	// One CPU for every cell, so that a boundary's time per op is what the
	// whole stack beneath it costs — the collector and, at the socket
	// boundaries, both ends of the connection included — and boundaries
	// subtract. (See runSvc for what a second CPU does to timings here.)
	unpin, err := pinToOneCPU()
	if err != nil {
		return nil, err
	}
	defer unpin()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newStream(cfg.seed, cfg.sz.ledgerPairs)
	out := map[string]float64{}
	ns := map[string]float64{} // "<boundary>.<m>" -> ns per op
	type boundary struct {
		name      string
		inProcess bool
		run       func(m int) (*cell, error)
	}
	// Outside in: each boundary's spans are parents of the next one's.
	chain := []boundary{
		{"client", false, func(m int) (*cell, error) { return socketCell(false, s, m, tr) }},
		{"server", false, func(m int) (*cell, error) { return socketCell(true, s, m, tr) }},
		{"shard.k4", true, func(m int) (*cell, error) {
			return inProcessCell(func() (port, error) { return shardPort(svcShards) }, s, m, tr)
		}},
		{"shard.k1", true, func(m int) (*cell, error) {
			return inProcessCell(func() (port, error) { return shardPort(1) }, s, m, tr)
		}},
		{"bounded", true, func(m int) (*cell, error) { return inProcessCell(boundedPort, s, m, tr) }},
		// core is the other tree engine, not a layer beneath bounded: its
		// spans are roots.
		{"core", true, func(m int) (*cell, error) { return inProcessCell(corePort, s, m, tr) }},
	}
	for _, m := range []int{1, batchM} {
		outer := int32(-1)
		for _, b := range chain {
			// A layer's tax is a difference of a few percent between two
			// cells, so each cell is run ledgerPasses times and the pass
			// with the median time stands for it.
			prefix := fmt.Sprintf("%s.m%d", b.name, m)
			passes := make([]*cell, ledgerPasses)
			for i := range passes {
				var err error
				if passes[i], err = b.run(m); err != nil {
					return nil, err
				}
				if !passes[i].verdict.ok() {
					return nil, fmt.Errorf("%s delivered wrongly: %s", prefix, passes[i].verdict)
				}
			}
			slices.SortFunc(passes, func(x, y *cell) int {
				return cmp.Compare(float64(x.ns)/float64(x.ops), float64(y.ns)/float64(y.ops))
			})
			c := passes[ledgerPasses/2]
			c.metrics(prefix, b.inProcess, out)
			ns[prefix] = out[prefix+".ns_per_op"]
			if b.name != "core" && outer >= 0 {
				for i := range c.spans {
					c.spans[i].parent = outer + int32(i)
				}
			}
			base := int32(len(tr.spans))
			tr.spans = append(tr.spans, c.spans...)
			outer = base
			if m == 1 {
				switch b.name {
				case "core":
					out["core.blocks_per_op"] = c.blocksPerOp
				case "bounded":
					out["bounded.live_blocks_end"] = float64(c.blocksEnd)
				}
			}
		}
		mm := fmt.Sprintf("m%d", m)
		out["shard."+mm+".tax_ns_per_op"] = ns["shard.k1."+mm] - ns["bounded."+mm]
		out["shard."+mm+".fanout_ns_per_op"] = ns["shard.k4."+mm] - ns["shard.k1."+mm]
		out["server."+mm+".tax_ns_per_op"] = ns["server."+mm] - ns["shard.k4."+mm]
		out["client."+mm+".tax_ns_per_op"] = ns["client."+mm] - ns["server."+mm]
	}
	return out, nil
}
