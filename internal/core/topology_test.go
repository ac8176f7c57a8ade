package core

import (
	"testing"

	"proverattest/internal/anchor"
	"proverattest/internal/protocol"
	"proverattest/internal/sim"
)

// TestFleetStaggerUsesTopologyPositions: fleet scheduling staggers by
// tree position, so with a seeded permutation two members swap offsets
// relative to the identity order — and with seed 0 the historical
// index-based stagger is preserved.
func TestFleetStaggerUsesTopologyPositions(t *testing.T) {
	period := 60 * sim.Second
	if got := staggerOffset(period, 3, 8); got != (period/8)*3 {
		t.Fatalf("staggerOffset changed: %v", got)
	}
	fleet, err := NewFleet(FleetConfig{Provers: 4, AttestPeriod: period, Fanout: 2, TopologySeed: 0,
		Scenario: defaultScenarioConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Topology == nil || fleet.Topology.Len() != 4 {
		t.Fatalf("fleet topology missing")
	}
	for i := range fleet.Members {
		if fleet.Topology.Pos(i) != i {
			t.Fatalf("seed-0 topology not identity ordered")
		}
	}
	seeded, err := NewFleet(FleetConfig{Provers: 16, AttestPeriod: period, Fanout: 2, TopologySeed: 77,
		Scenario: defaultScenarioConfig()})
	if err != nil {
		t.Fatal(err)
	}
	identity := true
	for i := range seeded.Members {
		if seeded.Topology.Pos(i) != i {
			identity = false
			break
		}
	}
	if identity {
		t.Fatalf("seeded topology unexpectedly identity ordered")
	}
}

func defaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{
		Freshness:  protocol.FreshCounter,
		Auth:       protocol.AuthHMACSHA1,
		Protection: anchor.FullProtection(),
	}
}
