package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"proverattest/internal/obs"
)

// benchMaster is the fleet master secret the daemon and the generated
// provers share (attestd -master).
const benchMaster = "proverattest-bench-master"

// daemon is one attestd subprocess with its scrape endpoints.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // device listener
	metrics string // Prometheus /metrics URL
	pprof   string // /debug/pprof/allocs?debug=1 URL
	started time.Time
	log     *logBuffer
	client  *http.Client
}

// startDaemon starts attestd on place's daemon CPUs with the common
// benchmark flags plus extra. It keeps the GOMAXPROCS it would have on this
// machine unpinned: sized to the daemon's CPUs alone (one, on two), the
// flood's read loop holds the only P and the issue loop misses most ticks.
// Ports are picked by binding :0 and releasing it; the caller retries on
// the rare collision, which shows up as an early exit.
func startDaemon(place placement, bin string, extra []string) (*daemon, error) {
	ports, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		addr:    ports[0],
		metrics: "http://" + ports[1] + "/metrics",
		pprof:   "http://" + ports[2] + "/debug/pprof/allocs?debug=1",
		log:     &logBuffer{listening: make(chan struct{})},
		client:  &http.Client{Timeout: 10 * time.Second},
	}
	args := append([]string{
		"-listen", ports[0], "-metrics", ports[1], "-pprof", ports[2],
		"-freshness", "counter", "-auth", "hmac-sha1", "-status-every", "0",
		"-master", benchMaster,
	}, extra...)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	// The daemon must not outlive the benchmark, whatever ends it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := place.startOn(d.cmd.Start); err != nil {
		if d.cmd.Process != nil {
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
		}
		return nil, fmt.Errorf("starting attestd: %w", err)
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// alive reports whether the daemon is still running. It polls with
// waitid(WNOHANG|WNOWAIT) rather than leaving a goroutine blocked in
// Wait: a goroutine in a blocking syscall keeps the generator's only P
// until the runtime's monitor takes it back, which can hold every other
// goroutine, the set-up clock's included, for up to 10 ms.
func (d *daemon) alive() bool {
	if d.cmd.ProcessState != nil {
		return false
	}
	const pPID, wNoWait = 1, 0x1000000 // P_PID, WNOWAIT
	var info [128]byte                 // siginfo_t; si_pid is the int32 at offset 16
	_, _, e := syscall.Syscall6(syscall.SYS_WAITID, pPID, uintptr(d.pid()), uintptr(unsafe.Pointer(&info[0])),
		syscall.WEXITED|syscall.WNOHANG|wNoWait, 0, 0)
	if e == 0 && *(*int32)(unsafe.Pointer(&info[16])) == 0 {
		return true // no state change yet
	}
	if e != 0 && e != syscall.ECHILD {
		return true // interrupted: ask again next time
	}
	_ = d.cmd.Wait() // reaps the exited daemon; its status is reported by failure
	return false
}

// stop asks the daemon to shut down and waits for it to exit, killing it
// if it has not exited within 5 s.
func (d *daemon) stop() {
	if !d.alive() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	deadline := time.Now().Add(5 * time.Second)
	for d.alive() {
		if time.Now().After(deadline) {
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads the daemon's /metrics exposition.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.metrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", d.metrics, resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// memStats reads the daemon's exact heap-object and GC counts.
func (d *daemon) memStats() (mallocs, numGC uint64, err error) {
	resp, err := d.client.Get(d.pprof)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("pprof %s: %s", d.pprof, resp.Status)
	}
	return parseMemStats(resp.Body)
}

// failure wraps err with the daemon's exit state and the tail of its log.
func (d *daemon) failure(err error) error {
	state := "running"
	if !d.alive() {
		state = "exited: " + d.cmd.ProcessState.String()
	}
	return fmt.Errorf("%w (attestd %s; log tail:\n%s)", err, state, d.log.tail(2048))
}

// freePorts reserves n distinct loopback ports and releases them.
func freePorts(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// dialRetry dials addr until it accepts or the deadline passes. It is
// called once attestd has logged that it is about to listen, so it first
// retries without sleeping for spinFor: a sleep shorter than a millisecond
// lasts a millisecond or more, as long as set-up itself.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	spin := time.Now().Add(spinFor)
	for {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return nc, nil
		}
		now := time.Now()
		if now.After(deadline) {
			return nil, fmt.Errorf("dialing attestd at %s: %w", addr, err)
		}
		if now.Before(spin) {
			runtime.Gosched()
		} else {
			time.Sleep(pollEvery)
		}
	}
}

// logBuffer keeps the daemon's output for failure reports, and closes
// listening when attestd logs that it is about to listen.
type logBuffer struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	listening chan struct{}
	heard     bool
}

// listeningLine is what attestd logs just before it binds its listener.
var listeningLine = []byte("attestd: listening on ")

// maxLog bounds the kept output; attestd runs with -status-every 0, so it
// logs only at start, stop and on errors.
const maxLog = 64 << 10

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf.Len() < maxLog {
		l.buf.Write(p)
	}
	if !l.heard && bytes.Contains(p, listeningLine) {
		l.heard = true
		close(l.listening)
	}
	return len(p), nil
}

func (l *logBuffer) tail(n int) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.buf.String()
	if len(s) > n {
		s = s[len(s)-n:]
	}
	return strings.TrimSpace(s)
}

// series helpers over a /metrics sample.

func rejects(s map[string]float64, cause string) float64 {
	return s[`attestd_rejects_total{cause="`+cause+`"}`]
}

// sumFamily totals every series of one family (all label sets).
func sumFamily(s map[string]float64, family string) float64 {
	var sum float64
	for key, v := range s {
		if key == family || strings.HasPrefix(key, family+"{") {
			sum += v
		}
	}
	return sum
}

var errTimeout = errors.New("timed out")
