package harness

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

// NetWallConfig parameterizes ExpNetMemWall.
type NetWallConfig struct {
	Shards  int
	Backend shard.Backend

	// Window is the driver's burst size and the server's window (they are
	// set equal so one burst is one server pass). Zero means 64.
	Window int
	// Rounds is the measured enqueue+dequeue round count per cell; each
	// round answers 2*Window frames. Zero means 16.
	Rounds int
	// ValueSize is the enqueued payload size. Zero means 128.
	ValueSize int
	// Seed offsets the conservation key space; the workload itself is
	// deterministic, so distinct seeds isolate environment noise.
	Seed int64
}

func (cfg *NetWallConfig) setDefaults() {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Backend == "" {
		cfg.Backend = shard.BackendCore
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 16
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 128
	}
	if cfg.ValueSize < 8 {
		cfg.ValueSize = 8 // room for the conservation key
	}
}

// ExpNetMemWall (T18) measures the network hot path's server-side memory
// cost per frame: for each batch size m and trace arm, a server serves a
// burst-synchronous workload from a zero-allocation raw-wire driver, and
// the rows report heap allocations and bytes per frame (process-wide
// runtime.MemStats deltas over the server's own frame counter) plus frames
// per socket flush. The driver speaks the wire format directly from
// preencoded request buffers — no Client, no per-frame encode — because
// MemStats is process-wide: any driver allocation would be charged to the
// server under measurement.
//
// Every cell is conservation-checked exactly: the driver XORs and counts
// the keys it enqueues and dequeues, requires both to match after the
// final drain, and requires the server to certify empty afterwards.
func ExpNetMemWall(batchSizes []int, cfg NetWallConfig) (*Table, error) {
	cfg.setDefaults()
	if len(batchSizes) == 0 {
		return nil, fmt.Errorf("netwall: no batch sizes")
	}
	t := &Table{
		ID: "T18",
		Title: fmt.Sprintf("Network memory wall: server-side allocs per frame on the network hot path (%s backend, %d shards, %dB values, window %d)",
			cfg.Backend, cfg.Shards, cfg.ValueSize, cfg.Window),
		Columns: []string{"m", "traced", "allocs/frame", "B/frame", "frames/flush"},
		// The allocation profile is structural and gates across machines;
		// frames-per-flush depends on how the scheduler interleaves the
		// driver's writes with the server's reads, so it is environment-bound.
		EnvCols: []string{"frames/flush"},
		Notes: []string{
			"hot path: size-classed pooled ingress buffers recycled per window, copy-at-admit enqueue payloads, every run of adjacent same-direction frames served by one fabric batch call, per-session reusable reply scratch flushed in one sized write.",
			"allocs/frame and B/frame = process-wide heap-allocation deltas (runtime.MemStats) divided by the server's answered-frame counter delta; the driver is a raw-wire zero-allocation loop, so the delta is the server's.",
			"frames/flush = answered frames per batch pass (one socket flush each, modulo mid-window spills).",
			fmt.Sprintf("workload per cell: %d warmup + %d measured rounds; each round bursts %d enqueue frames of m values then %d dequeue frames of m values, conservation XOR-checked exactly, final poll must certify empty.",
				netWarmup(cfg.Rounds), cfg.Rounds, cfg.Window, cfg.Window),
			"traced rows set the wire trace flag on every frame against an observability-on server: every reply carries the 40-byte span block and the span pipeline runs at full sampling.",
			"frozen reference — the pre-pooling network path (a fresh buffer per frame, allocating reply encoders, scratch released every flush), deleted once a differential replay showed byte-identical replies; its last recorded 3-seed means on this workload at m=1/8/64: allocs/frame 0.66 / 2.88 / 3.30 untraced and 3.18 / 4.92 / 5.33 traced; B/frame 377.8 / 4390.4 / 24223.2 untraced and 792.6 / 5281.1 / 29200.1 traced.",
		},
	}
	for _, m := range batchSizes {
		for _, traced := range []bool{false, true} {
			cell, err := measureNetCell(m, traced, cfg)
			if err != nil {
				return nil, fmt.Errorf("netwall m=%d traced=%v: %w", m, traced, err)
			}
			tr := "off"
			if traced {
				tr = "on"
			}
			t.AddRow(m, tr, cell.allocsPerFrame, cell.bytesPerFrame, cell.framesPerFlush)
		}
	}
	return t, nil
}

func netWarmup(rounds int) int { return rounds/4 + 2 }

// netCell is one (m, traced) cell's measurement.
type netCell struct {
	allocsPerFrame float64
	bytesPerFrame  float64
	framesPerFlush float64
}

// measureNetCell starts a fresh server for one cell, runs the warmup and
// measured rounds, and reads the per-frame allocation profile off the
// MemStats and Snapshot deltas.
func measureNetCell(m int, traced bool, cfg NetWallConfig) (netCell, error) {
	var out netCell
	q, err := shard.New[[]byte](cfg.Shards, shard.WithBackend(cfg.Backend))
	if err != nil {
		return out, err
	}
	srv, err := server.Serve("127.0.0.1:0", q,
		server.WithObservability(true),
		server.WithWindow(cfg.Window))
	if err != nil {
		return out, err
	}
	defer srv.Close()
	d, err := newNetDriver(srv.Addr().String(), m, traced, cfg)
	if err != nil {
		return out, err
	}
	defer d.close()

	for i := 0; i < netWarmup(cfg.Rounds); i++ {
		if err := d.round(); err != nil {
			return out, fmt.Errorf("warmup round %d: %w", i, err)
		}
	}

	// Order matters: the Snapshot before the window is taken ahead of the
	// first ReadMemStats, the one after behind the second, so neither
	// snapshot's own allocations land inside the measured delta (no
	// traffic flows between a snapshot and its adjacent ReadMemStats).
	runtime.GC()
	s0 := srv.Snapshot().Server
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < cfg.Rounds; i++ {
		if err := d.round(); err != nil {
			return out, fmt.Errorf("measured round %d: %w", i, err)
		}
	}
	runtime.ReadMemStats(&m1)
	s1 := srv.Snapshot().Server

	if err := d.assertEmpty(); err != nil {
		return out, err
	}
	if d.cntEnq != d.cntDeq || d.xorEnq != d.xorDeq {
		return out, fmt.Errorf("conservation violated: enqueued %d (xor %x) dequeued %d (xor %x)",
			d.cntEnq, d.xorEnq, d.cntDeq, d.xorDeq)
	}

	frames := s1.Frames - s0.Frames
	if frames <= 0 {
		return out, fmt.Errorf("server answered no frames in the measured window")
	}
	out.allocsPerFrame = float64(m1.Mallocs-m0.Mallocs) / float64(frames)
	out.bytesPerFrame = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(frames)
	if flushes := s1.Batches - s0.Batches; flushes > 0 {
		out.framesPerFlush = float64(frames) / float64(flushes)
	}
	return out, nil
}

// netDriver is the zero-allocation raw-wire load loop: request bursts are
// encoded once up front, per-round mutation happens in place (conservation
// keys, trace stamps), and replies are parsed from a fixed read buffer.
type netDriver struct {
	conn net.Conn
	sc   frameScanner

	m      int
	window int
	traced bool

	enqReq    []byte // one burst of window enqueue frames
	deqReq    []byte // one burst of window dequeue frames
	keyOffs   []int  // offsets of each value's 8-byte key within enqReq
	enqStamps []int  // trace-stamp offsets within enqReq
	deqStamps []int  // trace-stamp offsets within deqReq
	emptyReq  []byte // one untraced single-dequeue frame (drain check)

	key            uint64
	xorEnq, xorDeq uint64
	cntEnq, cntDeq int64
}

func newNetDriver(addr string, m int, traced bool, cfg NetWallConfig) (*netDriver, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &netDriver{
		conn:   conn,
		m:      m,
		window: cfg.Window,
		traced: traced,
		key:    uint64(cfg.Seed) << 32,
	}
	d.sc = frameScanner{conn: conn, buf: make([]byte, 64<<10)}
	maxReply := 4 + 9 + 40 + 4 + m*(4+cfg.ValueSize)
	if maxReply > len(d.sc.buf) {
		return nil, fmt.Errorf("netwall: m=%d x %dB reply (%dB) exceeds the driver's %dB read buffer",
			m, cfg.ValueSize, maxReply, len(d.sc.buf))
	}

	// Preencode the enqueue burst. Frame ids repeat across bursts — the
	// driver is burst-synchronous on one connection and the server replies
	// in order, so ids only need to be unique within a burst. AppendWireFrame
	// copies its parts, so one value buffer and one length word serve every
	// slot; conservation keys are patched in place per round.
	value := make([]byte, cfg.ValueSize)
	stamp := make([]byte, 8)
	var cnt, lenw [4]byte
	binary.BigEndian.PutUint32(cnt[:], uint32(m))
	binary.BigEndian.PutUint32(lenw[:], uint32(cfg.ValueSize))
	for i := 0; i < cfg.Window; i++ {
		op := server.OpEnqueue
		if m > 1 {
			op = server.OpEnqueueBatch
		}
		parts := make([][]byte, 0, 2+2*m)
		if traced {
			op |= server.OpTraceFlag
			parts = append(parts, stamp)
		}
		if m > 1 {
			parts = append(parts, cnt[:])
			for j := 0; j < m; j++ {
				parts = append(parts, lenw[:], value)
			}
		} else {
			parts = append(parts, value)
		}
		frameStart := len(d.enqReq)
		d.enqReq = server.AppendWireFrame(d.enqReq, uint64(i+1), op, parts...)
		// Locate the stamp and each value's key inside the just-encoded
		// frame: header, then stamp, then (for batches) count word and
		// length-prefixed values.
		p := frameStart + 4 + 9
		if traced {
			d.enqStamps = append(d.enqStamps, p)
			p += 8
		}
		if m > 1 {
			p += 4 // count word
			for j := 0; j < m; j++ {
				p += 4 // length word
				d.keyOffs = append(d.keyOffs, p)
				p += cfg.ValueSize
			}
		} else {
			d.keyOffs = append(d.keyOffs, p)
		}
	}

	// Preencode the dequeue burst.
	var req [4]byte
	binary.BigEndian.PutUint32(req[:], uint32(m))
	for i := 0; i < cfg.Window; i++ {
		op := server.OpDequeue
		var payload []byte
		if m > 1 {
			op = server.OpDequeueBatch
			payload = req[:]
		}
		id := uint64(i + 1)
		if traced {
			op |= server.OpTraceFlag
			stampAt := len(d.deqReq) + 4 + 9
			d.deqStamps = append(d.deqStamps, stampAt)
			if payload != nil {
				d.deqReq = server.AppendWireFrame(d.deqReq, id, op, make([]byte, 8), payload)
			} else {
				d.deqReq = server.AppendWireFrame(d.deqReq, id, op, make([]byte, 8))
			}
		} else if payload != nil {
			d.deqReq = server.AppendWireFrame(d.deqReq, id, op, payload)
		} else {
			d.deqReq = server.AppendWireFrame(d.deqReq, id, op)
		}
	}
	d.emptyReq = server.AppendWireFrame(nil, 1, server.OpDequeue)
	return d, nil
}

func (d *netDriver) close() { d.conn.Close() }

// round sends one enqueue burst and one dequeue burst, reading every reply
// synchronously. Backlog math keeps the two in lockstep: a burst enqueues
// window*m values, all acknowledged before the dequeue burst starts, and
// the dequeue burst asks for exactly window*m.
func (d *netDriver) round() error {
	for _, off := range d.keyOffs {
		d.key++
		binary.BigEndian.PutUint64(d.enqReq[off:], d.key)
		d.xorEnq ^= d.key
		d.cntEnq++
	}
	if d.traced {
		now := uint64(time.Now().UnixNano())
		for _, off := range d.enqStamps {
			binary.BigEndian.PutUint64(d.enqReq[off:], now)
		}
	}
	if _, err := d.conn.Write(d.enqReq); err != nil {
		return err
	}
	for i := 0; i < d.window; i++ {
		_, kind, _, err := d.sc.frame()
		if err != nil {
			return err
		}
		if kind&^server.OpTraceFlag != server.StatusOK {
			return fmt.Errorf("enqueue reply %d: status 0x%02x", i, kind)
		}
	}

	if d.traced {
		now := uint64(time.Now().UnixNano())
		for _, off := range d.deqStamps {
			binary.BigEndian.PutUint64(d.deqReq[off:], now)
		}
	}
	if _, err := d.conn.Write(d.deqReq); err != nil {
		return err
	}
	for i := 0; i < d.window; i++ {
		_, kind, payload, err := d.sc.frame()
		if err != nil {
			return err
		}
		if kind&server.OpTraceFlag != 0 {
			if len(payload) < 40 {
				return fmt.Errorf("dequeue reply %d: %d bytes below span block", i, len(payload))
			}
			kind &^= server.OpTraceFlag
			payload = payload[40:]
		}
		switch kind {
		case server.StatusOK:
			if d.m == 1 {
				if len(payload) < 8 {
					return fmt.Errorf("dequeue reply %d: %d-byte value below key size", i, len(payload))
				}
				d.xorDeq ^= binary.BigEndian.Uint64(payload)
				d.cntDeq++
				continue
			}
			if len(payload) < 4 {
				return fmt.Errorf("dequeue reply %d: truncated batch", i)
			}
			count := binary.BigEndian.Uint32(payload)
			payload = payload[4:]
			for j := uint32(0); j < count; j++ {
				if len(payload) < 4 {
					return fmt.Errorf("dequeue reply %d: truncated batch entry %d", i, j)
				}
				n := int(binary.BigEndian.Uint32(payload))
				payload = payload[4:]
				if n > len(payload) || n < 8 {
					return fmt.Errorf("dequeue reply %d: bad entry length %d", i, n)
				}
				d.xorDeq ^= binary.BigEndian.Uint64(payload)
				d.cntDeq++
				payload = payload[n:]
			}
		case server.StatusEmpty:
			// Tolerated per frame; the cell-level conservation check
			// catches any value that never came back.
		default:
			return fmt.Errorf("dequeue reply %d: status 0x%02x", i, kind)
		}
	}
	return nil
}

// assertEmpty verifies the backlog is fully drained: one plain dequeue
// must certify empty.
func (d *netDriver) assertEmpty() error {
	if _, err := d.conn.Write(d.emptyReq); err != nil {
		return err
	}
	_, kind, _, err := d.sc.frame()
	if err != nil {
		return err
	}
	if kind != server.StatusEmpty {
		return fmt.Errorf("drain check: status 0x%02x, want empty", kind)
	}
	return nil
}

// frameScanner reads wire frames from a connection through one fixed
// buffer: no per-frame allocation, payloads alias the buffer until the
// next call.
type frameScanner struct {
	conn net.Conn
	buf  []byte
	r, w int
}

// fill ensures at least need unread bytes are buffered, compacting first.
func (s *frameScanner) fill(need int) error {
	if s.w-s.r >= need {
		return nil
	}
	if s.r > 0 {
		copy(s.buf, s.buf[s.r:s.w])
		s.w -= s.r
		s.r = 0
	}
	if need > len(s.buf) {
		return fmt.Errorf("netwall: %d-byte frame exceeds the %d-byte scan buffer", need, len(s.buf))
	}
	for s.w-s.r < need {
		n, err := s.conn.Read(s.buf[s.w:])
		if err != nil {
			return err
		}
		s.w += n
	}
	return nil
}

// frame reads one frame; the payload aliases the scan buffer and is valid
// only until the next call.
func (s *frameScanner) frame() (id uint64, kind byte, payload []byte, err error) {
	if err = s.fill(4); err != nil {
		return
	}
	n := int(binary.BigEndian.Uint32(s.buf[s.r:]))
	if n < 9 {
		err = fmt.Errorf("netwall: frame length %d below header", n)
		return
	}
	if err = s.fill(4 + n); err != nil {
		return
	}
	body := s.buf[s.r+4 : s.r+4+n]
	s.r += 4 + n
	id = binary.BigEndian.Uint64(body)
	kind = body[8]
	payload = body[9:]
	return
}
