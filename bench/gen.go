//go:build linux

package main

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
)

// Everything a run feeds the program is made here from -seed: payload
// bytes, the order a producer rotates over its handles, which calls are
// sampled, and the Poisson arrival schedule. Each use draws from its own
// stream, so changing how much one consumes does not shift the others.
const (
	streamPayload = iota + 1
	streamRotation
	streamSchedule
	streamSample
)

func newRand(seed int64, stream, sub uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream<<32|sub))
}

// Wire values are [id 8][stamp 8][payload ...]: the id feeds the
// conservation check, the stamp (nanoseconds on the generator's clock, 0
// for unstamped) the delivery latency, and the payload is a window of the
// seeded pool chosen by the id, so the receiver can check every byte.
const (
	valueHeader = 16
	poolLen     = 1 << 16
)

func payloadPool(seed int64) []byte {
	r := newRand(seed, streamPayload, 0)
	pool := make([]byte, poolLen)
	for i := 0; i+8 <= len(pool); i += 8 {
		binary.LittleEndian.PutUint64(pool[i:], r.Uint64())
	}
	return pool
}

func payloadWindow(pool []byte, id uint64, n int) []byte {
	off := int((id * 0x9E3779B97F4A7C15 >> 33) % uint64(len(pool)-n))
	return pool[off : off+n]
}

// fillValue writes the value for id into buf, whose length is the value's.
func fillValue(buf []byte, pool []byte, id uint64, stamp int64) {
	binary.BigEndian.PutUint64(buf[0:8], id)
	binary.BigEndian.PutUint64(buf[8:16], uint64(stamp))
	copy(buf[valueHeader:], payloadWindow(pool, id, len(buf)-valueHeader))
}

// readValue is fillValue's inverse; ok is false if v is not a value this
// run generated.
func readValue(v []byte, pool []byte) (id uint64, stamp int64, ok bool) {
	if len(v) < valueHeader {
		return 0, 0, false
	}
	id = binary.BigEndian.Uint64(v[0:8])
	stamp = int64(binary.BigEndian.Uint64(v[8:16]))
	return id, stamp, bytes.Equal(v[valueHeader:], payloadWindow(pool, id, len(v)-valueHeader))
}

// poissonSchedule returns n arrival times, in nanoseconds from the start
// of a trial, of a Poisson process of the given rate per second.
func poissonSchedule(seed int64, trial int, rate float64, n int) []int64 {
	r := newRand(seed, streamSchedule, uint64(trial))
	due := make([]int64, n)
	t := 0.0
	for i := range due {
		t += r.ExpFloat64() / rate * 1e9
		due[i] = int64(t)
	}
	return due
}

// rotation returns n picks among k handles.
func rotation(seed int64, n, k int) []uint8 {
	r := newRand(seed, streamRotation, 0)
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(r.IntN(k))
	}
	return out
}

// sampleOffset picks which residue of the call index is timed.
func sampleOffset(seed int64, worker int) int {
	return newRand(seed, streamSample, uint64(worker)).IntN(sampleEvery)
}
