//go:build linux

package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// epoch anchors the monotonic clock every stamp in a run is read from.
var epoch = time.Now()

// now is nanoseconds on the run's monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the CPU time process pid has used, user and system, summed
// over its threads from /proc/<pid>/task/*/schedstat. The scheduler counts
// it in nanoseconds; utime and stime in /proc/<pid>/stat count in 10 ms
// ticks, which over a one-second trial reads the same on every run.
// (A thread that has exited takes its time with it; a Go program's threads
// do not exit while it serves.)
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("/proc/%d/task/*/schedstat: no threads found (%v)", pid, err)
	}
	var total time.Duration
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) || errors.Is(err, syscall.ESRCH) {
				continue // the thread exited between the listing and the read
			}
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty", path)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSMiB is the VmHWM of process pid (0 means this process).
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// loadAvg1 is the 1-minute load average.
func loadAvg1() (float64, error) {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0, errors.New("/proc/loadavg: empty")
	}
	return strconv.ParseFloat(f[0], 64)
}

// stolenCPU is the CPU time the host has given to others while this
// machine had work for it, summed over its CPUs since boot: the steal
// column of /proc/stat, which counts in USER_HZ ticks of 10 ms. It is 0 on a
// machine that is not a guest.
func stolenCPU() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: no steal column in %q", line)
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat: steal: %w", err)
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// repoRoot is the directory that holds go.mod, found from the working
// directory upwards: `go run ./bench` starts in it, `go test` in bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod in the working directory or above it: run from the repository")
		}
		dir = parent
	}
}

// buildDir is where the benchmark keeps what it builds and the files its
// children write. It is inside the checkout and named in .gitignore.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildBinary compiles the main package pkg into the build directory and
// returns the binary's path.
func buildBinary(root, pkg string) (string, error) {
	out := filepath.Join(buildDir(root), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", pkg, err, b)
	}
	return out, nil
}

// child is a server process the benchmark started.
type child struct {
	cmd  *exec.Cmd
	addr string
}

// startServer runs bin with args plus an ephemeral listen address, at
// GOMAXPROCS 1 (it shares the generator's CPU; see runSvc), and waits until
// it has written the address it bound.
func startServer(root, bin string, args ...string) (*child, error) {
	dir, err := os.MkdirTemp(buildDir(root), "run-")
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd}
	defer os.RemoveAll(dir)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			c.addr = string(b)
			return c, nil
		}
	}
	c.stop()
	return nil, fmt.Errorf("%s wrote no listen address within 10s", bin)
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop ends the child — SIGTERM, then SIGKILL if it lingers — and returns
// once it has been reaped.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait below still reaps it
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait() // a signalled child's exit status is not an error worth reporting
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
}

// cpuMask is a CPU affinity mask as sched_setaffinity takes it.
type cpuMask [16]uint64 // 1024 CPUs

func setAffinity(tid int, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}

// setProcessAffinity confines every thread of this process to m. Threads
// and children started afterwards inherit the mask from the thread that
// starts them; the passes repeat until one finds no thread it had not seen,
// so a thread born during a pass is not missed.
func setProcessAffinity(m *cpuMask) error {
	seen := map[string]bool{}
	for fresh := true; fresh; {
		fresh = false
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			if seen[t.Name()] {
				continue
			}
			seen[t.Name()], fresh = true, true
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				return err
			}
			if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) { // ESRCH: the thread has exited
				return err
			}
		}
	}
	return nil
}

// pinToOneCPU confines this process, and the children it starts from now
// on, to the first CPU it is allowed to run on, and returns a function that
// lifts the confinement again.
func pinToOneCPU() (unpin func(), err error) {
	var old cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(old), uintptr(unsafe.Pointer(&old))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var one cpuMask
	for i, w := range old {
		if w != 0 {
			one[i] = w & -w // lowest set bit
			break
		}
	}
	if err := setProcessAffinity(&one); err != nil {
		return nil, err
	}
	return func() { _ = setProcessAffinity(&old) }, nil // best effort: the process is about to exit, or a test moves on
}
