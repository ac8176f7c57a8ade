package main

import (
	"os/exec"
	"slices"
	"syscall"
	"testing"
	"time"
)

func TestCPUMask(t *testing.T) {
	for _, cpus := range [][]int{nil, {0}, {1}, {0, 1}, {3, 63, 64, 130}} {
		m := maskOf(cpus)
		if got := m.cpus(); !slices.Equal(got, cpus) {
			t.Errorf("maskOf(%v).cpus() = %v", cpus, got)
		}
	}
}

// TestDaemonAlive checks the non-blocking exit poll on a real child: alive
// while it runs, not alive once it has exited, and reaped by then.
func TestDaemonAlive(t *testing.T) {
	cmd := exec.Command("sleep", "30")
	if err := cmd.Start(); err != nil {
		t.Skipf("no sleep binary: %v", err)
	}
	d := &daemon{cmd: cmd}
	if !d.alive() {
		t.Fatal("alive() = false for a running child")
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.alive() {
		if time.Now().After(deadline) {
			t.Fatal("alive() still true 5 s after SIGKILL")
		}
		time.Sleep(time.Millisecond)
	}
	if cmd.ProcessState == nil {
		t.Fatal("the exited child was not reaped")
	}
	if d.alive() {
		t.Fatal("alive() = true after the child was reaped")
	}
}

// TestProberMean checks that a sample takes the mean of the probes since
// the previous one and that a probe measures some CPU time.
func TestProberMean(t *testing.T) {
	p := &prober{place: placement{}}
	if ns, err := p.take(); err != nil || !(ns > 0) {
		t.Fatalf("take with no probe yet = %v, %v; want one fresh probe > 0", ns, err)
	}
	p.sum, p.n = 30, 3
	if ns, err := p.take(); err != nil || ns != 10 {
		t.Fatalf("take = %v, %v; want the mean 10", ns, err)
	}
	if p.n != 0 || p.sum != 0 {
		t.Fatalf("take left sum %v, n %d; want both reset", p.sum, p.n)
	}
}
