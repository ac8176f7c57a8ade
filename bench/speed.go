package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A shared host does not run this machine's CPUs at a fixed speed: while a
// neighbour is busy, every CPU slows together, by up to a third and for
// minutes at a time, and a CPU-bound throughput moves with it. Before each
// set-up and while the measured phase runs, the benchmark therefore times a
// fixed kernel on the daemon's CPUs, in thread CPU time, and reports the
// set-up time and the gate rate of a workload the daemon's CPU bounds at a
// reference speed: measured time ÷ slowdown(probe ns), measured rate ×
// slowdown(probe ns). The kernel is standard-library and benchmark code
// only, so no change to the repository moves it.

// probeRefNs is the reference speed: one probe round in 10 µs, about what
// a 2-vCPU guest on a 2 GHz Xeon (family 6 model 143) takes.
const probeRefNs = 10_000

// probeExp is how much harder the daemon's gate is hit than the probe when
// the host slows: over 500 one-second windows of the two floods on that
// guest, log(gate rate) fell 1.3–1.7 times as fast as log(probe speed)
// (correlation 0.95; the gate's frames cross from the generator's CPU and
// its reads copy out of kernel buffers, the probe's kernel stays in its
// own cache). Of the exponents 1, 1.25 and 1.5, 1.25 left the smallest
// worst-case run-to-run spread across five passes of ten runs.
const probeExp = 1.25

// slowdown is how many times slower than at the reference speed the
// daemon's work ran, given the mean probe over a window.
func slowdown(probeNs float64) float64 { return math.Pow(probeNs/probeRefNs, probeExp) }

// A probe is probeRounds rounds of the kernel, about 0.3 ms of CPU, taken
// every probeEvery: 0.3% of the daemon's CPU. One probe reads within about
// 10% of the next; a window's mean of ten tracks the window.
const (
	probeRounds = 32
	probeEvery  = 100 * time.Millisecond
)

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

func threadCPUNs() int64 {
	var ts syscall.Timespec
	// clock_gettime on the thread's own clock cannot fail.
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// probeSink keeps the kernel's result live.
var probeSink uint64

// probe runs the kernel on a thread bound to the daemon's CPUs and returns
// the thread CPU time per round.
func (p placement) probe() (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if p.split {
		if err := setAffinity(0, p.daemon); err != nil {
			return 0, err
		}
	}
	ns := probeHere()
	if p.split {
		return ns, setAffinity(0, p.gen)
	}
	return ns, nil
}

// probeHere runs the kernel on the calling goroutine's thread and returns
// the thread CPU time per round. The kernel mixes what the daemon's
// per-frame path does: an ALU loop over a buffer, map updates, a copy and
// a syscall.
func probeHere() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]byte, 4096)
	dst := make([]byte, len(buf))
	m := make(map[uint64]uint64, 1024)
	h := uint64(14695981039346656037)
	t0 := threadCPUNs()
	for r := 0; r < probeRounds; r++ {
		for _, c := range buf {
			h ^= uint64(c)
			h *= 1099511628211
		}
		for i := uint64(0); i < 256; i++ {
			m[(h+i)&1023] += i
		}
		copy(dst, buf)
		buf[r] = byte(h)
		syscall.Getppid()
	}
	ns := float64(threadCPUNs()-t0) / probeRounds
	probeSink += h + uint64(len(m)) + uint64(dst[0])
	return ns
}

// prober probes the daemon's CPUs every probeEvery until closed.
type prober struct {
	place placement
	stop  chan struct{}
	done  chan struct{}

	mu  sync.Mutex
	sum float64
	n   int
	err error
}

func startProber(place placement) *prober {
	p := &prober{place: place, stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *prober) run() {
	defer close(p.done)
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		p.probe()
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

func (p *prober) probe() {
	ns, err := p.place.probe()
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.err = err
		return
	}
	p.sum += ns
	p.n++
}

// take returns the mean probe since the previous take, probing once now if
// none has run since.
func (p *prober) take() (float64, error) {
	p.mu.Lock()
	n := p.n
	p.mu.Unlock()
	if n == 0 {
		p.probe()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return 0, p.err
	}
	mean := p.sum / float64(p.n)
	p.sum, p.n = 0, 0
	return mean, nil
}

func (p *prober) close() {
	close(p.stop)
	<-p.done
}
