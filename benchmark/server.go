package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// server is an lsra-served child process listening on a loopback port,
// started with the daemon's default flags.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan struct{}
	http *http.Client

	mu       sync.Mutex
	gcCycles uint64
	gcCPUNs  float64
	tail     []string // last stderr lines, for errors
}

// startServer launches bin and waits until /healthz answers. With
// gctrace the child runs under GODEBUG=gctrace=1 and its GC cycles and
// GC CPU are read from that trace, the only place a separate process
// reports them.
func startServer(ctx context.Context, bin string, gctrace bool) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:"+port)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if gctrace {
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{
		cmd: cmd, base: "http://127.0.0.1:" + port, done: make(chan struct{}),
		http: &http.Client{Timeout: 10 * time.Second},
	}
	go func() {
		s.readStderr(stderr)
		_ = cmd.Wait() // the exit status of a stopped server is expected
		close(s.done)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := s.http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("lsra-served exited during start-up: %s", s.stderrTail())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("lsra-served not healthy after 15s: %s", s.stderrTail())
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// readStderr consumes the child's log: gctrace lines are tallied, the
// rest kept as a short tail for error messages.
func (s *server) readStderr(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		if cpu, ok := parseGCTrace(line); ok {
			s.gcCycles++
			s.gcCPUNs += cpu
		} else if s.tail = append(s.tail, line); len(s.tail) > 8 {
			s.tail = s.tail[1:]
		}
		s.mu.Unlock()
	}
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// gc returns the GC cycles and GC CPU counted so far.
func (s *server) gc() (uint64, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcCycles, s.gcCPUNs
}

// parseGCTrace reads one GODEBUG=gctrace=1 line, "gc N @T P%: ... ms
// clock, a+b/c/d+e ms cpu, ...", and returns the cycle's CPU time in ns.
func parseGCTrace(line string) (float64, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return 0, false
	}
	for _, field := range strings.Split(line, ", ") {
		cpu, ok := strings.CutSuffix(field, " ms cpu")
		if !ok {
			continue
		}
		var ms float64
		for _, part := range strings.FieldsFunc(cpu, func(r rune) bool { return r == '+' || r == '/' }) {
			v, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return 0, false
			}
			ms += v
		}
		return ms * 1e6, true
	}
	return 0, false
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// metrics fetches the daemon's /metrics document.
func (s *server) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := s.http.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// stop sends SIGTERM, which drains the daemon, and waits for it to exit,
// killing it if the drain takes longer than ten seconds.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.done:
		return nil
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // already exiting or gone: nothing to do
		<-s.done
		return fmt.Errorf("lsra-served did not drain in 10s; killed")
	}
}
