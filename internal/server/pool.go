package server

import "sync"

// Network memory pool: size-classed recycled byte buffers for the server's
// frame hot path. Two kinds of storage cycle through it:
//
//   - ingress frame bodies: readFramePooled decodes each request payload into
//     a pooled buffer, which the session returns once its window is
//     processed (every reply byte has been copied into the egress scratch
//     and every enqueue payload copied out at admit time, so the body is
//     provably dead);
//   - value copies: enqueue payloads are copied out of their frame body
//     into pooled buffers before entering the fabric, and recycled when a
//     dequeue reply ships them (the reply encoder copies the bytes into
//     the egress scratch, so the value is dead the moment its reply frame
//     is buffered).
//
// The lifetime rule that makes recycling sound: a buffer is returned to
// the pool only by the goroutine that holds its sole reference, only after
// the last read of its bytes. A dequeued value sits in its session's stash
// from the fabric pull until a reply ships it, and is recycled only once
// a socket write has taken that reply whole (frameWriter.hold); a value
// whose reply did not get out whole goes back to the front of the stash —
// which owns its bytes until teardown re-enqueues them, at which point the
// fabric owns them again.
//
// Ownership contract: a value enqueued into a served fabric is transferred
// to the service — callers must not read or reuse the slice afterwards
// (the fabric already forbids reuse; serving additionally allows the
// server to recycle the storage once the value has been delivered).
//
// Buffers are grouped into power-of-four-ish size classes; Get returns a
// buffer from the smallest class that fits, so steady-state traffic of any
// frame size recycles without per-class tuning. Requests beyond the
// largest class fall back to plain allocation and are never pooled — a
// one-off giant frame must not pin megabytes in the pool.
var bufClasses = [...]int{64, 256, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}

// byteBuf is the pooled wrapper. sync.Pool stores interface values, and
// boxing a slice header allocates where boxing a pointer does not — so the
// pools hold *byteBuf and the empty shells recirculate through shellPool.
type byteBuf struct{ b []byte }

var bufPools [len(bufClasses)]sync.Pool

// shellPool recycles empty byteBuf wrappers between putBuf (which needs
// one) and getBuf (which frees one), so steady-state Get/Put pairs
// allocate nothing.
var shellPool = sync.Pool{New: func() any { return new(byteBuf) }}

// classFor returns the smallest class index whose buffers hold n bytes, or
// -1 when n exceeds the largest class.
func classFor(n int) int {
	for c, size := range bufClasses {
		if n <= size {
			return c
		}
	}
	return -1
}

// classOf returns the largest class index whose size a buffer of this
// capacity satisfies, or -1 when the capacity is below the smallest class.
// A buffer filed under class c always has cap >= bufClasses[c], which is
// what lets getBuf hand it out for any request of at most that size.
func classOf(capacity int) int {
	class := -1
	for c, size := range bufClasses {
		if capacity < size {
			break
		}
		class = c
	}
	return class
}

// getBuf returns a buffer of length n, recycled when a pooled one of the
// right class is available. The contents are unspecified — callers
// overwrite the full length.
func getBuf(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	w, _ := bufPools[c].Get().(*byteBuf)
	if w == nil {
		return make([]byte, n, bufClasses[c])
	}
	b := w.b
	w.b = nil
	shellPool.Put(w)
	if cap(b) < n { // defensive; classOf filing makes this unreachable
		return make([]byte, n, bufClasses[c])
	}
	return b[:n]
}

// putBuf recycles a buffer for a later getBuf. Buffers below the smallest
// class (or nil) are dropped; oversized buffers are filed under the
// largest class they cover. The caller must hold the only reference.
func putBuf(b []byte) {
	c := classOf(cap(b))
	if c < 0 {
		return
	}
	w := shellPool.Get().(*byteBuf)
	w.b = b[:0]
	bufPools[c].Put(w)
}

// copyBuf copies v into a pooled buffer: the admit-time copy that makes an
// enqueue payload independent of its (recyclable) frame body.
func copyBuf(v []byte) []byte {
	b := getBuf(len(v))
	copy(b, v)
	return b
}
