// Command nullserver is the benchmark's control for its own load
// generator: a listener that speaks the queue service's wire format,
// parses every frame, and answers from its read loop, with the least a
// queue can be behind it — a mutex and a slice, so that consumers are fed
// as they are by queued and poll no more than they do there. Driven by the
// same generator at the same rate, what it shows is the latency the
// generator, the Client and loopback have on their own (gen.floor_*). It
// is for the benchmark only.
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"repro/bench/wirescan"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "TCP listen address")
	addrFile := flag.String("addr-file", "", "write the resolved listen address to this file")
	flag.Parse()
	if err := run(*addr, *addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "nullserver:", err)
		os.Exit(1)
	}
}

func run(addr, addrFile string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: the process is exiting
			}
			go serve(conn)
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return ln.Close()
}

// store holds the values between an enqueue and the dequeue that takes
// them, in arrival order.
type store struct {
	mu   sync.Mutex
	vals [][]byte
}

var values store

// put stores copies of vs, which alias a connection's read buffer.
func (s *store) put(vs ...[]byte) {
	s.mu.Lock()
	for _, v := range vs {
		s.vals = append(s.vals, append([]byte(nil), v...))
	}
	s.mu.Unlock()
}

// take removes and returns up to n values.
func (s *store) take(n int) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	n = min(n, len(s.vals))
	out := s.vals[:n:n]
	s.vals = s.vals[n:]
	return out
}

// serve answers one connection until it closes. Replies are flushed when
// the input runs dry, as queued flushes a window's replies together.
func serve(conn net.Conn) {
	defer conn.Close()
	in := wirescan.New(conn, server.DefaultMaxFrame)
	out := bufio.NewWriter(conn)
	var reply, scratch []byte
	var batch [][]byte
	for {
		f, err := in.Next()
		if err != nil {
			return
		}
		status, payload := server.StatusErr, []byte(nil)
		switch f.Kind {
		case server.OpEnqueue:
			values.put(f.Payload)
			status = server.StatusOK
		case server.OpEnqueueBatch:
			if batch, err = wirescan.DecodeBatch(batch[:0], f.Payload); err == nil {
				values.put(batch...)
				status = server.StatusOK
			}
		case server.OpDequeue:
			status = server.StatusEmpty
			if got := values.take(1); len(got) == 1 {
				status, payload = server.StatusOK, got[0]
			}
		case server.OpDequeueBatch:
			status = server.StatusEmpty
			if len(f.Payload) != 4 {
				status = server.StatusErr
			} else if got := values.take(int(binary.BigEndian.Uint32(f.Payload))); len(got) > 0 {
				scratch = wirescan.AppendBatch(scratch[:0], got)
				status, payload = server.StatusOK, scratch
			}
		}
		reply = server.AppendWireFrame(reply[:0], f.ID, status, payload)
		if _, err := out.Write(reply); err != nil {
			return
		}
		if in.Buffered() == 0 {
			if err := out.Flush(); err != nil {
				return
			}
		}
	}
}
