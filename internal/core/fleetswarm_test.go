package core

import (
	"testing"

	"proverattest/internal/anchor"
	"proverattest/internal/protocol"
)

func newTestFleetSwarm(t *testing.T, n, fanout int) *FleetSwarm {
	t.Helper()
	fleet, err := NewFleet(FleetConfig{
		Provers: n,
		Fanout:  fanout,
		Scenario: ScenarioConfig{
			Freshness:  protocol.FreshCounter,
			Auth:       protocol.AuthHMACSHA1,
			Protection: anchor.FullProtection(),
			Monitor:    true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFleetSwarm(fleet)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestFleetSwarmCleanRound: a full aggregation round over real anchors
// on the sim kernel verifies, costs exactly two verifier-side frames,
// and the second round rides every member's stored digest (the RATA
// memo) — one measurement per member total.
func TestFleetSwarmCleanRound(t *testing.T) {
	const n = 16
	fs := newTestFleetSwarm(t, n, 2)

	resp, err := fs.CheckedRound()
	if err != nil {
		t.Fatalf("first round: %v", err)
	}
	if resp == nil {
		t.Fatal("no response")
	}
	first := fs.VerifierMessages
	if first != 2 {
		t.Fatalf("verifier messages = %d, want 2", first)
	}

	if _, err := fs.CheckedRound(); err != nil {
		t.Fatalf("second round: %v", err)
	}
	if got := fs.VerifierMessages - first; got != 2 {
		t.Fatalf("second-round verifier messages = %d, want 2", got)
	}
	var measurements, fast uint64
	for _, m := range fs.F.Members {
		measurements += m.Dev.A.Stats.Measurements
		fast += m.Dev.A.Stats.FastResponses
	}
	if measurements != n {
		t.Fatalf("fleet measured %d times over two rounds, want %d", measurements, n)
	}
	if fast != n {
		t.Fatalf("fast own-tags = %d, want %d", fast, n)
	}
	// Tree traffic: 2 frames per edge per round, n-1 edges.
	if want := uint64(2 * 2 * (n - 1)); fs.TreeMessages != want {
		t.Fatalf("tree messages = %d, want %d", fs.TreeMessages, want)
	}
}

// TestFleetSwarmChargesEnergy: aggregation is not free for the provers —
// every member's anchor pays gate + tag cycles on its own meter.
func TestFleetSwarmChargesEnergy(t *testing.T) {
	fs := newTestFleetSwarm(t, 4, 2)
	if _, err := fs.CheckedRound(); err != nil {
		t.Fatal(err)
	}
	for i, m := range fs.F.Members {
		if m.Dev.ActiveEnergyJoules() <= 0 {
			t.Fatalf("member %d spent no energy on the swarm round", i)
		}
	}
}

// TestSwarmMatrix: every adversary cell detects, localizes to the right
// member with the right cause, and recovers per its contract; the honest
// cell stays clean at two verifier frames per round.
func TestSwarmMatrix(t *testing.T) {
	results, err := RunSwarmMatrix(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("matrix has %d cells, want 5", len(results))
	}
	for _, r := range results {
		t.Logf("%-8s target=%2d detected=%-5v localized=%-5v probes=%d verdict=%q recovered=%v",
			r.Adversary, r.Target, r.Detected, r.Localized, r.BisectProbes, r.Verdict, r.RecoveredClean)
		if r.Adversary == SwarmHonestFleet {
			if r.Detected {
				t.Fatalf("honest fleet flagged: %q", r.Verdict)
			}
			if r.CleanVerifierMsg != 2 {
				t.Fatalf("honest clean round took %d verifier messages", r.CleanVerifierMsg)
			}
			continue
		}
		if !r.Detected {
			t.Fatalf("%v not detected", r.Adversary)
		}
		if !r.Localized {
			t.Fatalf("%v not localized to member %d: %v", r.Adversary, r.Target, r.Findings)
		}
		if !r.RecoveredClean {
			t.Fatalf("%v did not recover clean", r.Adversary)
		}
		if r.BisectProbes == 0 || r.BisectProbes >= uint64(r.Provers) {
			t.Fatalf("%v bisection probes = %d (fleet %d)", r.Adversary, r.BisectProbes, r.Provers)
		}
	}
}
