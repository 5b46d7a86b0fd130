package server

// Golden wire-stream test. On one connection every enqueue lands on the
// handle's home shard and every dequeue is served stash-first then
// home-first, so the reply bytes are a function of the request frames'
// order alone — not of where the batch worker happened to cut its windows,
// and not of how the executor groups frames into fabric calls. The digests
// below were recorded at the commit before the executor was reduced to one
// run-based path (six routes and a switchable legacy network arm at the
// time; that commit produced the same digests with one-frame windows on
// the legacy arm as with its defaults). A changed digest is a wire-visible
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
	"obs-on-untraced/1": "ead034df39405b51563c759d288dac9e6ea0fed331edf14f21a708af86cfe707",
	"obs-on-untraced/2": "86cd05602d1abcdd29444590d6d0c449b87320d33541e6396dc7a45699c27ac5",
	"obs-on-untraced/3": "d8a77dd4acc013d7e437eeab25820ae497ca3ee02acc4131130496f3e0e745db",
	"obs-on-untraced/4": "0efc96386597f8623e05e62349f02b6c0a78e90b5c212060a68d04f99e53f4fe",
	"obs-on-untraced/5": "9c34e1872e6b4842683fd41fa2df5ada19caad2dc8480130cff18caa47b12770",
	"obs-on-untraced/6": "164a3839de3011f337337bd40e36e428bc80a5ddea6a29fc94b1b74154daa186",
	"obs-off-traced/1":  "48a79fe76537e0fda3c68ef9b18b74f4f2a2ccafefd2fd9c2a95234115803528",
	"obs-off-traced/2":  "52d1e8dac662e6b70bd4c35baa2c06679e5082c484bfc4b8dac226aff0686bd0",
	"obs-off-traced/3":  "b78aec7109ef7dd0245a46134b9ad6205838fe3fb1861f73cd4259e3fce4e12e",
	"obs-off-traced/4":  "ef070223374b38bb68e22028f2b45b46bec4212434bdc7c133ee0321a2fa7040",
	"obs-off-traced/5":  "a93b70162cc324197196a9965a5019b295a0560bb832923e659c6e1d37ef66e0",
	"obs-off-traced/6":  "7ddde3d3bb67ee4f2dec8dc6cffe9f4468012a6589ccb676570d55fee859cdb5",
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
		return g.frame(dst, OpResize, g.bytes(3))
	case 7:
		return g.frame(dst, OpResizeQ, binary.BigEndian.AppendUint32(nil, 77), g.bytes(4))
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
