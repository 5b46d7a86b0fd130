package server

// Golden wire-stream test. On one connection every enqueue lands on the
// handle's home shard and every dequeue is served stash-first, then from
// the handle's sticky shard, which starts at home and is the only shard
// that ever holds the connection's values, so the reply bytes are a
// function of the request frames' order alone — not of where the server happened to cut its windows,
// and not of how the executor groups frames into fabric calls. The digests
// below were recorded at the commit before the executor was reduced to one
// run-based path (six routes and a switchable legacy network arm at the
// time; that commit produced the same digests with one-frame windows on
// the legacy arm as with its defaults), and re-recorded on the commit
// before live resizing was removed, with only the RESIZE opcodes (0x09,
// 0x19) made unknown: the stream still sends both, and they must answer
// exactly as any other unknown opcode. A changed digest is a wire-visible
// behaviour change.
//
// The stream is a seeded mix of everything a peer can put on the wire that
// has a deterministic answer: single and batch data frames, unqualified and
// queue-qualified, known and unknown queue ids, zero-count and malformed
// batches, values on both sides of the 512-byte frame cap's admission
// bound, truncated trace/queue prefixes, unknown opcodes, control ops, and
// a queue deleted under its bound session. One corner is left out: a frame
// that is inadmissible in itself (oversized single, malformed or zero-count
// batch, malformed batch-dequeue count) and also names an unknown queue id.
// The recording commit answered an oversized single with its own error when
// it executed alone and with the bind error when it was coalesced into a
// run, so no digest of it could be stable; a run now binds first, always.
// Unknown ids therefore only receive frames that are otherwise well formed.
// OpLen reply payloads are masked (status still hashed): Len excludes
// values parked in a session stash, and how many are parked is the one
// thing run boundaries may move.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"

	"repro/internal/shard"
)

const (
	goldenWindow   = 16
	goldenMaxFrame = 512
	goldenBursts   = 1400
	// goldenMaxBody is the largest payload a request frame may carry
	// without tripping the server's frame cap (which closes the connection).
	goldenMaxBody = goldenMaxFrame - frameHeader
	// goldenFit is the largest admissible value (see batchReplyOverhead).
	goldenFit = goldenMaxFrame - frameHeader - batchReplyOverhead
)

// goldenDigests maps "<mode>/<seed>" to the SHA-256 of the concatenated
// reply frames of that stream.
var goldenDigests = map[string]string{
	"obs-on-untraced/1": "d688a58f58f19433be08ab348d517187d57c8873de30ac7fc83434179bcf52d8",
	"obs-on-untraced/2": "3625fc19d9e3a4fcd3cc34133aec8c401ca422788cd58b4576165249e8a052bc",
	"obs-on-untraced/3": "2ccb28e77ba5011bb73624b578e0b7d6aa2172b6d09ca9341a6d85ef57aff4ca",
	"obs-on-untraced/4": "202a416b4972828a87ec62a517f9ad66d554be2a3b773c3f86fff4bbd0f6bd65",
	"obs-on-untraced/5": "36305f7d5d4a51b289643c7fb9eb5ef1a8f5262ed63dc5d292ef2dc1630e1f53",
	"obs-on-untraced/6": "fa4633a4fba86004edd900a39820cac33a88b43c20df1f383d99eff038680dc6",
	"obs-off-traced/1":  "28c298833ff1118a3113895d1976ba17328c0983aa02d9c4b1490e0751a89b2a",
	"obs-off-traced/2":  "dc251b882cc177370d329f4870c3bdab3a0579d787c1e2f612aa5b909961c1fd",
	"obs-off-traced/3":  "d8e4bd4b725b904208582b68dc592c5a50f2f1d0a847d15357e14777495b5666",
	"obs-off-traced/4":  "a82b76540e1fb575b36c133fcb28608464ff0b158497e3e285d73946a1e2ca2a",
	"obs-off-traced/5":  "04b000759db6454b18154828ea7e9cf3ccfe8e1ca5c3776c3b8db82984ed909e",
	"obs-off-traced/6":  "931d3a6b271d66de42d40299411bbbea99fee3a074121c43258e76aab8589a5b",
}

// goldenTarget is one queue a generated frame may address.
type goldenTarget struct {
	qid       uint32
	qualified bool // carry the queue-id prefix (always true for qid != 0)
	known     bool
}

type goldenGen struct {
	rng    *rand.Rand
	traced bool // set OpTraceFlag on about half the data frames
	nextID uint64
	lenIDs map[uint64]bool // OpLen requests, whose OK payloads are masked
	fill   bool            // phase: enqueue-heavy vs dequeue-heavy
}

func (g *goldenGen) target() goldenTarget {
	switch r := g.rng.Intn(100); {
	case r < 35:
		return goldenTarget{0, false, true}
	case r < 45:
		return goldenTarget{0, true, true}
	case r < 68:
		return goldenTarget{1, true, true}
	case r < 90:
		return goldenTarget{2, true, true}
	default:
		return goldenTarget{77, true, false}
	}
}

func (g *goldenGen) bytes(n int) []byte {
	b := make([]byte, n)
	g.rng.Read(b)
	return b
}

// frame appends one request frame with a fresh id.
func (g *goldenGen) frame(dst []byte, kind byte, parts ...[]byte) []byte {
	g.nextID++
	return appendFrame(dst, g.nextID, kind, parts...)
}

// data appends one data frame for base opcode op aimed at tg; body builds
// the base payload given how many payload bytes the prefixes leave.
func (g *goldenGen) data(dst []byte, op byte, tg goldenTarget, body func(room int) []byte) []byte {
	var prefix []byte
	if g.traced && g.rng.Intn(2) == 0 {
		op |= OpTraceFlag
		prefix = append(prefix, g.bytes(traceStampLen)...)
	}
	if tg.qualified {
		op |= OpQueueFlag
		prefix = binary.BigEndian.AppendUint32(prefix, tg.qid)
	}
	return g.frame(dst, op, prefix, body(goldenMaxBody-len(prefix)))
}

func (g *goldenGen) enqueue(dst []byte, tg goldenTarget) []byte {
	return g.data(dst, OpEnqueue, tg, func(room int) []byte {
		n := g.rng.Intn(65)
		if g.rng.Intn(100) < 15 { // straddle the admission bound
			n = goldenFit - 10 + g.rng.Intn(19)
		}
		if !tg.known {
			n = min(n, goldenFit)
		}
		return g.bytes(min(n, room))
	})
}

func (g *goldenGen) enqueueBatch(dst []byte, tg goldenTarget) []byte {
	return g.data(dst, OpEnqueueBatch, tg, func(room int) []byte {
		count := 1 + g.rng.Intn(6)
		size := func() int { return g.rng.Intn(81) }
		switch r := g.rng.Intn(100); {
		case r < 10 && tg.known:
			count = 0
		case r < 20:
			count, size = 1, func() int { return room - 8 - g.rng.Intn(12) }
		}
		p := binary.BigEndian.AppendUint32(nil, 0)
		n := 0
		for ; n < count; n++ {
			v := g.bytes(size())
			if len(p)+4+len(v) > room {
				break
			}
			p = binary.BigEndian.AppendUint32(p, uint32(len(v)))
			p = append(p, v...)
		}
		binary.BigEndian.PutUint32(p, uint32(n))
		if !tg.known || g.rng.Intn(100) >= 12 {
			return p
		}
		switch g.rng.Intn(5) { // malformed variants
		case 0:
			return p[:2]
		case 1:
			binary.BigEndian.PutUint32(p, 0xFFFFFFFF)
		case 2:
			binary.BigEndian.PutUint32(p, uint32(n+1))
		case 3:
			if len(p) < room {
				p = append(p, 0)
			}
		case 4:
			p = p[:len(p)-1]
		}
		return p
	})
}

func (g *goldenGen) dequeue(dst []byte, tg goldenTarget) []byte {
	return g.data(dst, OpDequeue, tg, func(int) []byte { return nil })
}

func (g *goldenGen) dequeueBatch(dst []byte, tg goldenTarget) []byte {
	return g.data(dst, OpDequeueBatch, tg, func(int) []byte {
		if tg.known && g.rng.Intn(100) < 8 {
			return g.bytes(3 + 2*g.rng.Intn(2)) // 3 or 5 bytes: malformed
		}
		counts := []uint32{0, 1, 2, 3, 8, 64, MaxBatchOps + 4464}
		return binary.BigEndian.AppendUint32(nil, counts[g.rng.Intn(len(counts))])
	})
}

// other appends one non-data frame: a control op, an unknown opcode, or a
// frame too short for its declared prefixes.
func (g *goldenGen) other(dst []byte) []byte {
	qid := func() []byte {
		return binary.BigEndian.AppendUint32(nil, []uint32{0, 1, 2, 77}[g.rng.Intn(4)])
	}
	switch g.rng.Intn(12) {
	case 0, 1:
		dst = g.frame(dst, OpLen)
		g.lenIDs[g.nextID] = true
	case 2, 3:
		dst = g.frame(dst, OpLenQ, qid())
		g.lenIDs[g.nextID] = true
	case 4:
		return g.frame(dst, OpOpen, []byte([]string{"ga", DefaultQueueName, ""}[g.rng.Intn(3)]))
	case 5:
		return g.frame(dst, OpDelete, []byte([]string{"nope", DefaultQueueName}[g.rng.Intn(2)]))
	case 6:
		return g.frame(dst, 0x09, g.bytes(3)) // the retired RESIZE opcode, now unknown
	case 7:
		return g.frame(dst, 0x19, binary.BigEndian.AppendUint32(nil, 77), g.bytes(4)) // qualified RESIZE, likewise
	case 8, 9:
		kinds := []byte{0x00, 0x0A, 0x14, 0x17, 0x23, 0x33, 0x7F, 0x90}
		return g.frame(dst, kinds[g.rng.Intn(len(kinds))], g.bytes(g.rng.Intn(13)))
	case 10:
		kinds := []byte{OpEnqueueQ, OpDequeueQ, OpEnqueueBatchQ, OpDequeueBatchQ, OpLenQ}
		return g.frame(dst, kinds[g.rng.Intn(len(kinds))], g.bytes(g.rng.Intn(queueIDLen)))
	default:
		if !g.traced {
			return g.frame(dst, OpDequeueBatchQ, g.bytes(2))
		}
		if g.rng.Intn(2) == 0 {
			return g.frame(dst, OpEnqueue|OpTraceFlag, g.bytes(g.rng.Intn(traceStampLen)))
		}
		return g.frame(dst, OpDequeueQ|OpTraceFlag, g.bytes(traceStampLen+g.rng.Intn(queueIDLen)))
	}
	return dst
}

// burst appends 1..goldenWindow frames: either a homogeneous stretch (one
// direction, one queue — the shape that forms long runs) or an independent
// mix.
func (g *goldenGen) burst(dst []byte) ([]byte, int) {
	n := 1 + g.rng.Intn(goldenWindow)
	enqPct := 35
	if g.fill {
		enqPct = 60
	}
	if g.rng.Intn(100) < 35 {
		tg := g.target()
		tg.qualified = tg.qualified || g.rng.Intn(2) == 0
		enq := g.rng.Intn(100) < enqPct
		for i := 0; i < n; i++ {
			batch := g.rng.Intn(100) < 35
			switch {
			case enq && batch:
				dst = g.enqueueBatch(dst, tg)
			case enq:
				dst = g.enqueue(dst, tg)
			case batch:
				dst = g.dequeueBatch(dst, tg)
			default:
				dst = g.dequeue(dst, tg)
			}
		}
		return dst, n
	}
	for i := 0; i < n; i++ {
		r := g.rng.Intn(100)
		switch {
		case r < 12:
			dst = g.other(dst)
		case g.rng.Intn(100) < enqPct:
			if r < 40 {
				dst = g.enqueueBatch(dst, g.target())
			} else {
				dst = g.enqueue(dst, g.target())
			}
		default:
			if r < 45 {
				dst = g.dequeueBatch(dst, g.target())
			} else {
				dst = g.dequeue(dst, g.target())
			}
		}
	}
	return dst, n
}

// goldenStream drives one seeded stream against a fresh server and returns
// the digest of its replies. Each burst is written in one piece and fully
// answered before the next, so the window (== the largest burst) never
// fills and no BUSY is ever drawn.
func goldenStream(t *testing.T, seed int64, obsOn, traced bool) string {
	q, err := shard.New[[]byte](2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q, WithMaxFrame(goldenMaxFrame),
		WithWindow(goldenWindow), WithObservability(obsOn))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	g := &goldenGen{rng: rand.New(rand.NewSource(seed)), traced: traced, lenIDs: map[uint64]bool{}}
	sum := sha256.New()
	answered := uint64(0)
	statuses := map[byte]int{} // logged: shows the stream reaches every reply kind
	exchange := func(burst []byte, n int) {
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		var head [4]byte
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(br, head[:]); err != nil {
				t.Fatalf("reply %d: %v", answered+1, err)
			}
			body := make([]byte, binary.BigEndian.Uint32(head[:]))
			if _, err := io.ReadFull(br, body); err != nil {
				t.Fatalf("reply %d: %v", answered+1, err)
			}
			answered++
			id, kind := binary.BigEndian.Uint64(body), body[8]
			if id != answered {
				t.Fatalf("reply id %d, want %d (replies follow request order)", id, answered)
			}
			if kind == StatusBusy {
				t.Fatalf("reply %d: BUSY drawn from a synchronous burst", id)
			}
			if g.lenIDs[id] && kind == StatusOK {
				clear(body[frameHeader:])
			}
			statuses[kind]++
			sum.Write(head[:])
			sum.Write(body)
		}
	}
	// Two named queues (ids 1 and 2); "gb" is deleted two thirds of the way
	// through, after which its bound session sees enqueues refused CLOSED
	// while dequeues drain what the fabric still holds.
	var setup []byte
	setup = g.frame(setup, OpOpen, []byte("ga"))
	setup = g.frame(setup, OpOpen, []byte("gb"))
	exchange(setup, 2)
	var buf []byte
	for b := 0; b < goldenBursts; b++ {
		if b%40 == 0 {
			g.fill = !g.fill
		}
		if b == goldenBursts*2/3 {
			exchange(g.frame(nil, OpDelete, []byte("gb")), 1)
		}
		var n int
		buf, n = g.burst(buf[:0])
		exchange(buf, n)
	}
	t.Logf("%d replies: ok=%d empty=%d closed=%d err=%d", answered,
		statuses[StatusOK], statuses[StatusEmpty], statuses[StatusClosed], statuses[StatusErr])
	return hex.EncodeToString(sum.Sum(nil))
}

func TestGoldenWireStream(t *testing.T) {
	modes := []struct {
		name          string
		obsOn, traced bool
	}{
		// Traced frames are only deterministic on an obs-off server, which
		// serves them normally and answers plain; an obs-on server's traced
		// replies carry clock stamps.
		{"obs-on-untraced", true, false},
		{"obs-off-traced", false, true},
	}
	for _, m := range modes {
		for seed := int64(1); seed <= 6; seed++ {
			key := fmt.Sprintf("%s/%d", m.name, seed)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				got := goldenStream(t, seed, m.obsOn, m.traced)
				if want := goldenDigests[key]; got != want {
					t.Errorf("reply digest\n got %q\nwant %q", got, want)
				}
			})
		}
	}
}
