package wirescan

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/server"
)

// The scanner must read back exactly what the server's own encoder wrote.
func TestScannerRoundTripsAppendWireFrame(t *testing.T) {
	vals := [][]byte{[]byte("a"), {}, bytes.Repeat([]byte{0xfe}, 300)}
	frames := []Frame{
		{ID: 1, Kind: server.OpEnqueue, Payload: []byte("hello")},
		{ID: 2, Kind: server.OpDequeue},
		{ID: 1 << 40, Kind: server.OpEnqueueBatch, Payload: AppendBatch(nil, vals)},
		{ID: 3, Kind: server.StatusEmpty},
	}
	var stream []byte
	for _, f := range frames {
		stream = server.AppendWireFrame(stream, f.ID, f.Kind, f.Payload)
	}
	s := New(bytes.NewReader(stream), server.DefaultMaxFrame)
	for i, want := range frames {
		got, err := s.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != want.ID || got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
		if want.Kind == server.OpEnqueueBatch {
			dec, err := DecodeBatch(nil, got.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec) != len(vals) {
				t.Fatalf("batch: %d values, want %d", len(dec), len(vals))
			}
			for j := range vals {
				if !bytes.Equal(dec[j], vals[j]) {
					t.Fatalf("batch value %d: got %q, want %q", j, dec[j], vals[j])
				}
			}
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

func TestScannerRejectsMalformed(t *testing.T) {
	frame := server.AppendWireFrame(nil, 7, server.OpEnqueue, []byte("payload"))
	if _, err := New(bytes.NewReader(frame[:len(frame)-2]), server.DefaultMaxFrame).Next(); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := New(bytes.NewReader(frame), 12).Next(); err == nil {
		t.Error("frame above the cap was accepted")
	}
	if _, err := New(bytes.NewReader([]byte{0, 0, 0, 3, 1, 2, 3}), server.DefaultMaxFrame).Next(); err == nil {
		t.Error("frame shorter than its header was accepted")
	}
	for _, bad := range [][]byte{{0, 0}, {0, 0, 0, 1}, {0, 0, 0, 1, 0, 0, 0, 9, 1}, {0, 0, 0, 0, 1}} {
		if _, err := DecodeBatch(nil, bad); err == nil {
			t.Errorf("batch payload %v was accepted", bad)
		}
	}
}
