package main

import (
	"os/exec"
	"strings"
	"testing"
)

// simulatorPackages are the prover simulator: the kernel, the MCU and its
// ISA, the trust anchor, the channel and adversaries on the kernel, the
// energy model, the campaign runner, the anchor's services and the
// façade over all of them.
var simulatorPackages = []string{
	"sim", "mcu", "isa", "anchor", "channel", "adversary", "energy", "runner", "services", "core",
}

// TestVerifierLinksNoSimulator checks the layering DESIGN.md describes:
// the verifier is the trusted party and its binary carries none of the
// prover simulator, so no simulator package may be among the daemon's
// dependencies.
func TestVerifierLinksNoSimulator(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := make(map[string]bool)
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	if !deps["proverattest/internal/server"] {
		t.Fatalf("go list -deps named no proverattest/internal/server:\n%s", out)
	}
	for _, p := range simulatorPackages {
		if deps["proverattest/internal/"+p] {
			t.Errorf("cmd/attestd links simulator package internal/%s", p)
		}
	}
}
