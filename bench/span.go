//go:build linux

package main

import (
	"os"
	"path/filepath"
	"strconv"
)

// span is one timed call into a layer's public surface, recorded by the
// benchmark around the call (nothing inside the program is instrumented).
// Spans of one operation share op; parent is the index of the span that
// encloses this one in the same trace file, or -1 for a root.
type span struct {
	name       uint16 // index into trace.names
	op         uint64
	parent     int32
	start, end int64 // nanoseconds on the run's clock
}

// trace holds a traced run's spans in memory until the run ends.
type trace struct {
	names []string
	index map[string]uint16
	spans []span
}

func newTrace() *trace { return &trace{index: map[string]uint16{}} }

// name interns a span name ("layer.func").
func (t *trace) name(s string) uint16 {
	if i, ok := t.index[s]; ok {
		return i
	}
	i := uint16(len(t.names))
	t.names = append(t.names, s)
	t.index[s] = i
	return i
}

// add appends spans recorded in a private buffer, whose parents index
// that buffer, and returns the index the first of them received.
func (t *trace) add(spans []span) int32 {
	base := int32(len(t.spans))
	for _, s := range spans {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
	return base
}

// write stores the trace as JSON:
//
//	{"names": ["core.Enqueue", ...],
//	 "spans": [[name, op, parent, start_ns, end_ns], ...]}
//
// one row per span, so a reader can stream a large file.
func (t *trace) write(root, workload string) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	buf := make([]byte, 0, 64+48*len(t.spans))
	buf = append(buf, `{"names": [`...)
	for i, n := range t.names {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = strconv.AppendQuote(buf, n)
	}
	buf = append(buf, "],\n \"spans\": [\n"...)
	for i, s := range t.spans {
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		buf = strconv.AppendUint(buf, uint64(s.name), 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.op, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, ']')
	}
	buf = append(buf, "\n]}\n"...)
	return path, os.WriteFile(path, buf, 0o644)
}
