package server

import (
	"bufio"
	"encoding/binary"
)

// Test-side encoders. The server encodes replies straight into its egress
// scratch and the client straight into its write buffer, so neither needs
// these materializing forms; tests do, to build frames by hand.

// writeFrame appends one frame to w; the caller flushes.
func writeFrame(w *bufio.Writer, id uint64, kind byte, payload []byte) error {
	_, err := w.Write(appendFrame(nil, id, kind, payload))
	return err
}

// encodeBatch renders vals as a count-prefixed batch payload.
func encodeBatch(vals [][]byte) []byte {
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, encodedBatchSize(vals)), uint32(len(vals)))
	for _, v := range vals {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	return buf
}
