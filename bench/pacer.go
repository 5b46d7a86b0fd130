//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// hrTimer sleeps with the kernel's resolution. time.Sleep cannot pace an
// open loop at tens of thousands of arrivals per second: when the process
// is otherwise idle the Go runtime waits for its next timer inside
// epoll_wait, whose timeout is in whole milliseconds, so a 50 µs sleep
// returns up to a millisecond late — and a benchmark that timed requests
// from then on would report its own pacing as the service's tail. A
// timerfd is a file: its expiry reaches the goroutine through the same
// epoll_wait as a network reply, on time.
type hrTimer struct {
	fd uintptr
	f  *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0o4000
	tfdCloexec     = 0o2000000
)

func newHRTimer() (*hrTimer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor is registered with the runtime's poller,
	// so Read parks the goroutine rather than a thread.
	return &hrTimer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep returns after d has passed.
func (t *hrTimer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec{it_interval, it_value}, each a struct timespec.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *hrTimer) close() { t.f.Close() }
