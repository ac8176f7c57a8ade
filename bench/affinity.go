package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity(2) CPU set.
type cpuMask [16]uint64

func (m *cpuMask) cpus() []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// setAffinity binds one thread (0: the calling thread) to m.
func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
	}
	return nil
}

// placement splits the CPUs this process may use between attestd and the
// generator: the generator gets the last one and attestd the rest, so the
// two never take turns on a CPU and each one's CPU time is its own work,
// not the other's cache misses and wake-ups. With one CPU both share it.
type placement struct {
	daemon, gen cpuMask
	split       bool
}

// pinGenerator binds every thread of this process to the generator's CPU
// and sets GOMAXPROCS to match. Threads started later inherit the binding
// from the thread that starts them.
func pinGenerator() (placement, error) {
	all, err := getAffinity()
	if err != nil {
		return placement{}, err
	}
	cpus := all.cpus()
	if len(cpus) < 2 {
		return placement{daemon: all, gen: all}, nil
	}
	p := placement{daemon: maskOf(cpus[:len(cpus)-1]), gen: maskOf(cpus[len(cpus)-1:]), split: true}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return p, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, p.gen); err != nil {
			return p, err
		}
	}
	runtime.GOMAXPROCS(1)
	return p, nil
}

// startOn runs start, which forks a process, on a thread bound to p.daemon:
// a child inherits the CPU set of the thread that forks it. The thread is
// then bound back to p.gen. It must live on rather than end with a locked
// goroutine, because the daemon's parent-death signal follows the thread
// that forked it. While the thread is locked the runtime starts new threads
// from its template thread, so none inherits the daemon's CPUs.
func (p placement) startOn(start func() error) error {
	if !p.split {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, p.daemon); err != nil {
		return err
	}
	serr := start()
	if err := setAffinity(0, p.gen); err != nil {
		return err
	}
	return serr
}
