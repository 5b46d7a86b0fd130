// Package wirescan is the benchmark's own reader of the queue service's
// wire format: a frame scanner and the batch payload codec. The benchmark
// builds request frames with server.AppendWireFrame and reads replies
// with this, so the ledger's server boundary and the null server depend
// on the documented format alone, not on the Client.
package wirescan

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// header is the id and kind that follow a frame's 4-byte length prefix.
const header = 8 + 1

// Frame is one decoded frame. Payload aliases the scanner's buffer and is
// valid until the next call to Next.
type Frame struct {
	ID      uint64
	Kind    byte
	Payload []byte
}

// Scanner reads frames from a stream.
type Scanner struct {
	r   *bufio.Reader
	buf []byte
	max int
}

// New returns a Scanner that rejects frames longer than maxFrame bytes.
func New(r io.Reader, maxFrame int) *Scanner {
	return &Scanner{r: bufio.NewReaderSize(r, 64<<10), max: maxFrame}
}

// Buffered reports how many bytes have been read from the stream but not
// yet returned, so a caller can tell whether Next would block.
func (s *Scanner) Buffered() int { return s.r.Buffered() }

// Next reads one frame. It returns io.EOF at a clean end of stream.
func (s *Scanner) Next() (Frame, error) {
	var pre [4]byte
	if _, err := io.ReadFull(s.r, pre[:]); err != nil {
		return Frame{}, err
	}
	n := int(binary.BigEndian.Uint32(pre[:]))
	if n < header || n > s.max {
		return Frame{}, fmt.Errorf("wirescan: frame length %d outside [%d, %d]", n, header, s.max)
	}
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	b := s.buf[:n]
	if _, err := io.ReadFull(s.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{ID: binary.BigEndian.Uint64(b[:8]), Kind: b[8], Payload: b[header:]}, nil
}

// AppendBatch appends the batch encoding of vals — a uint32 count, then
// each value behind its uint32 length — to dst.
func AppendBatch(dst []byte, vals [][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(vals)))
	for _, v := range vals {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// DecodeBatch appends the values of a batch payload to dst. The values
// alias payload.
func DecodeBatch(dst [][]byte, payload []byte) ([][]byte, error) {
	if len(payload) < 4 {
		return dst, fmt.Errorf("wirescan: batch payload of %d bytes", len(payload))
	}
	count := binary.BigEndian.Uint32(payload)
	payload = payload[4:]
	for i := range count {
		if len(payload) < 4 {
			return dst, fmt.Errorf("wirescan: batch entry %d of %d truncated", i, count)
		}
		n := binary.BigEndian.Uint32(payload)
		payload = payload[4:]
		if uint64(n) > uint64(len(payload)) {
			return dst, fmt.Errorf("wirescan: batch entry %d claims %d of %d bytes", i, n, len(payload))
		}
		dst = append(dst, payload[:n:n])
		payload = payload[n:]
	}
	if len(payload) != 0 {
		return dst, fmt.Errorf("wirescan: %d bytes after the batch", len(payload))
	}
	return dst, nil
}
