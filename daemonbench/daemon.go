package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one influtrackd child process listening on loopback, with a
// private run directory holding its WAL and its log.
type daemon struct {
	pid     int
	port    int
	base    string // http://127.0.0.1:<port>
	dir     string // run directory, removed by stop
	exited  chan struct{}
	waitErr error // valid once exited is closed
}

// pickPort asks the OS for a free loopback port, unless one is forced.
func pickPort(forced int) (int, error) {
	if forced > 0 {
		return forced, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick port: %w", err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// startDaemon spawns bin on a fresh port with its WAL under dir. It
// refuses a port something already answers on: a stale daemon left
// there would otherwise be measured in place of this one. The child
// dies with this process (Pdeathsig) even if cleanup never runs.
func startDaemon(bin, dir string, forcedPort int, fsync string, extra []string) (*daemon, error) {
	port, err := pickPort(forcedPort)
	if err != nil {
		return nil, err
	}
	if c, err := net.DialTimeout("tcp", fmt.Sprintf("127.0.0.1:%d", port), 200*time.Millisecond); err == nil {
		c.Close()
		return nil, fmt.Errorf("port occupied: something already answers on 127.0.0.1:%d", port)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-wal-dir", filepath.Join(dir, "wal"),
		"-wal-fsync", fsync,
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn daemon: %w", err)
	}
	d := &daemon{
		pid: cmd.Process.Pid, port: port, dir: dir,
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		exited: make(chan struct{}),
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// stop kills the daemon, waits for it to be reaped and removes its run
// directory. Safe to call more than once.
func (d *daemon) stop() {
	select {
	case <-d.exited:
	default:
		_ = syscall.Kill(-d.pid, syscall.SIGKILL) // the whole process group
		<-d.exited
	}
	_ = os.RemoveAll(d.dir)
}

// alive reports whether the daemon process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// exitError describes an early exit with the tail of the daemon's log.
func (d *daemon) exitError() error {
	tail, _ := os.ReadFile(filepath.Join(d.dir, "daemon.log"))
	if len(tail) > 600 {
		tail = tail[len(tail)-600:]
	}
	return fmt.Errorf("daemon exited early (%v): %s", d.waitErr, strings.TrimSpace(string(tail)))
}

// waitHealthy polls /healthz until it answers 200, then confirms the
// listener belongs to this child: a foreign process that won the port
// between pickPort and the child's bind must not be measured.
func (d *daemon) waitHealthy(ctx context.Context, c *http.Client, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		if !d.alive() {
			return d.exitError()
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if resp, err := c.Do(req); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("unhealthy: /healthz not ok after %v", budget)
		}
		time.Sleep(time.Millisecond)
	}
	owns, err := ownsListener(d.pid, d.port)
	if err != nil {
		return fmt.Errorf("check listener owner: %w", err)
	}
	if !owns {
		if !d.alive() {
			return d.exitError()
		}
		return fmt.Errorf("port occupied: 127.0.0.1:%d answers but daemon pid %d does not own it", d.port, d.pid)
	}
	return nil
}

// ownsListener reports whether pid holds the socket listening on port,
// matching the socket inodes among its descriptors against the kernel's
// TCP tables.
func ownsListener(pid, port int) (bool, error) {
	fds, err := os.ReadDir(fmt.Sprintf("/proc/%d/fd", pid))
	if err != nil {
		return false, err
	}
	inodes := map[string]bool{}
	for _, fd := range fds {
		link, err := os.Readlink(fmt.Sprintf("/proc/%d/fd/%s", pid, fd.Name()))
		if err == nil && strings.HasPrefix(link, "socket:[") {
			inodes[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	hexPort := fmt.Sprintf(":%04X", port)
	for _, table := range []string{"tcp", "tcp6"} {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/net/%s", pid, table))
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			// sl local_address rem_address st ... uid timeout inode
			if len(f) > 9 && strings.HasSuffix(f[1], hexPort) && f[3] == "0A" && inodes[f[9]] {
				return true, nil
			}
		}
	}
	return false, nil
}

// cpuTicks reads a process's user+system CPU time in clock ticks
// (USER_HZ, 100 per second on Linux) from /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// Fields after the command: state is field 3, utime 14, stime 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

const ticksPerSecond = 100

// hostSteal reads the steal and total ticks of all CPUs from /proc/stat
// (zeros when unreadable: the figure is a diagnostic only).
func hostSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// removeStaleRuns deletes run directories left by benchmark processes
// that no longer exist (killed before their cleanup could run).
func removeStaleRuns(runsDir string) {
	entries, err := os.ReadDir(runsDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		owner, _, _ := strings.Cut(e.Name(), "-")
		pid, err := strconv.Atoi(owner)
		if err != nil || pid == os.Getpid() {
			continue
		}
		if syscall.Kill(pid, 0) == syscall.ESRCH {
			_ = os.RemoveAll(filepath.Join(runsDir, e.Name()))
		}
	}
}

// drain consumes and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
