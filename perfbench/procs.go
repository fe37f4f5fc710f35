package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// startTimeout bounds how long a spawned server may take to listen and
// report ready.
const startTimeout = 30 * time.Second

// proc is one spawned d2mserver process.
type proc struct {
	name    string
	cmd     *exec.Cmd
	addr    string
	logDone chan struct{} // closed when the process's log stream hits EOF
	once    sync.Once
	stopErr error
}

// procs tracks every live process so that any exit path can stop them.
var procs struct {
	mu   sync.Mutex
	live []*proc
}

// startServer spawns bin with args plus a loopback listen address,
// waits for its "listening" log line and returns. The log is copied to
// logPath.
func startServer(bin, name, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Killed with the benchmark, should the benchmark itself be killed
	// before it can stop its servers.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe() // d2mserver logs to standard output
	if err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logDone: make(chan struct{})}
	procs.mu.Lock()
	procs.live = append(procs.live, p)
	procs.mu.Unlock()

	addrc := make(chan string, 1) // one send at most; buffered so the reader never blocks
	go func() {
		defer close(p.logDone)
		defer logf.Close()
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !sent && strings.Contains(line, "msg=listening") {
				if a := field(line, "addr="); a != "" {
					addrc <- a
					sent = true
				}
			}
		}
		io.Copy(logf, stdout)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.logDone:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening (log: %s)", name, logPath)
	case <-time.After(startTimeout):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within %v (log: %s)", name, startTimeout, logPath)
	}
}

// field extracts key=value from a logfmt line.
func field(line, key string) string {
	i := strings.Index(line, key)
	if i < 0 {
		return ""
	}
	v := line[i+len(key):]
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return v
}

func (p *proc) url() string { return "http://" + p.addr }

// peakRSSMiB reads the process's peak resident set (VmHWM).
func (p *proc) peakRSSMiB() (float64, error) { return peakRSSMiB(p.cmd.Process.Pid) }

// stop sends SIGTERM, waits for a graceful drain, and kills the process
// if it has not exited in time. It returns once the process is reaped.
func (p *proc) stop() error {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
		select {
		case <-p.logDone:
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill() // the drain budget ran out; Wait reports the outcome
			<-p.logDone
		}
		p.stopErr = p.cmd.Wait()
		procs.mu.Lock()
		for i, q := range procs.live {
			if q == p {
				procs.live = append(procs.live[:i], procs.live[i+1:]...)
				break
			}
		}
		procs.mu.Unlock()
	})
	return p.stopErr
}

// stopAll stops every process still running.
func stopAll() {
	procs.mu.Lock()
	live := append([]*proc(nil), procs.live...)
	procs.mu.Unlock()
	for _, p := range live {
		p.stop()
	}
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(ctx context.Context, hc *httpClient, base string) error {
	ctx, cancel := context.WithTimeout(ctx, startTimeout)
	defer cancel()
	for {
		code, _, err := hc.do(ctx, "GET", base+"/readyz", nil, nil)
		if err == nil && code == 200 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: last status %d, err %v", base, code, err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// peakRSSMiB reads VmHWM of a process from /proc.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
