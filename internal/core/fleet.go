package core

import (
	"context"
	"fmt"

	"proverattest/internal/adversary"
	"proverattest/internal/anchor"
	"proverattest/internal/energy"
	"proverattest/internal/protocol"
	"proverattest/internal/runner"
	"proverattest/internal/sim"
	"proverattest/internal/swarm"
)

// Fleet is a set of provers sharing one simulated timeline — the paper's
// future-work item 1 ("trial-deploy proposed methods in the context of
// connected devices, such as Internet of Things") as an experiment: a
// building's worth of battery-powered sensors, each with its own key,
// channel and verifier session, some of them under adversarial flood.
type Fleet struct {
	K       *sim.Kernel
	Members []*Scenario
	// Period is the genuine attestation interval every member is
	// scheduled on (FleetConfig.AttestPeriod after defaulting). Keeping it
	// here means scheduling cannot silently disagree with the configured
	// period.
	Period sim.Duration
	// Topology is the fleet's spanning tree: scheduling staggers members
	// by tree position and swarm rounds fold along the same tree, so the
	// two cannot disagree about the fleet's shape. Always set by
	// NewFleet; nil in hand-assembled fleets falls back to index-ordered
	// scheduling.
	Topology *swarm.Topology
	// SwarmKey is the fleet-wide K_Swarm broadcast key; non-nil iff the
	// fleet was built with FleetConfig.Fanout > 0.
	SwarmKey []byte

	// topologySeed is FleetConfig.TopologySeed: with the member count and
	// fanout it rebuilds Topology (see NewFleetSwarm).
	topologySeed int64
}

// FleetConfig parameterises a fleet deployment.
type FleetConfig struct {
	// Provers is the fleet size.
	Provers int
	// Scenario is the per-prover configuration (Tap and Battery are
	// managed per member; leave them unset).
	Scenario ScenarioConfig
	// AttestPeriod is the per-prover genuine attestation interval;
	// members are staggered across the period to avoid a thundering herd.
	AttestPeriod sim.Duration
	// Fanout, when > 0, arranges the fleet in a spanning tree of this
	// arity and provisions every member for swarm aggregation (K_Swarm,
	// tree index, bitmap width). Zero keeps the 1:1-only fleet with an
	// identity-ordered topology used purely for scheduling.
	Fanout int
	// TopologySeed permutes members across tree positions (0 = identity,
	// preserving the historical index-ordered stagger).
	TopologySeed int64
}

// NewFleet boots n provers on one kernel, each with its own coin cell.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Provers <= 0 {
		return nil, fmt.Errorf("core: fleet needs at least one prover, got %d", cfg.Provers)
	}
	if cfg.AttestPeriod <= 0 {
		cfg.AttestPeriod = 60 * sim.Second
	}
	k := sim.NewKernel()
	f := &Fleet{K: k, Period: cfg.AttestPeriod, topologySeed: cfg.TopologySeed}
	f.Topology = swarm.NewTopology(cfg.Provers, cfg.Fanout, cfg.TopologySeed)
	if cfg.Fanout > 0 {
		swarmKey := protocol.DeriveSwarmKey(FleetMasterSecret)
		f.SwarmKey = swarmKey[:]
	}
	for i, id := range swarm.FleetIDs(cfg.Provers) {
		member := cfg.Scenario
		member.Battery = energy.CoinCellCR2032()
		// Per-device keys: one roaming compromise must not yield a key
		// that impersonates the verifier to the rest of the fleet.
		deviceKey := protocol.DeriveDeviceKey(FleetMasterSecret, id)
		member.AttestKey = deviceKey[:]
		if f.SwarmKey != nil {
			member.SwarmKey = f.SwarmKey
			member.SwarmIndex = uint16(i)
			member.SwarmFleet = cfg.Provers
		}
		s, err := NewScenarioOn(k, member)
		if err != nil {
			return nil, fmt.Errorf("core: booting fleet member %d: %w", i, err)
		}
		f.Members = append(f.Members, s)
	}
	return f, nil
}

// FleetMasterSecret seeds the fleet's per-device key derivation; member
// i's key derives from it and swarm.FleetIDs(n)[i].
var FleetMasterSecret = []byte("proverattest-fleet-master-secret")

// ScheduleAttestation arranges periodic genuine attestation for every
// member over the given horizon, staggered across the fleet's configured
// period. A fleet with no members (possible when the struct is assembled
// by hand rather than via NewFleet) schedules nothing.
func (f *Fleet) ScheduleAttestation(horizon sim.Duration) {
	n := len(f.Members)
	if n == 0 || f.Period <= 0 {
		return
	}
	for i, m := range f.Members {
		// Stagger by tree position, not raw index: with a seeded topology
		// the tree's upper levels (which carry swarm fold traffic for
		// their subtrees) attest earliest in the period, and with the
		// identity topology this reduces to the historical index order.
		pos := i
		if f.Topology != nil {
			if p := f.Topology.Pos(i); p >= 0 {
				pos = p
			}
		}
		offset := staggerOffset(f.Period, pos, n)
		if offset >= horizon {
			continue
		}
		count := int((horizon - offset) / f.Period)
		m.IssueEvery(f.K.Now()+offset+f.Period/2, f.Period, count)
	}
}

// staggerOffset spreads member i of n evenly across one period without the
// uint64(period)*uint64(i) product, which overflows for long periods ×
// large fleets (e.g. a day-long period across a 100k-device fleet).
// Dividing first keeps every intermediate ≤ period.
func staggerOffset(period sim.Duration, i, n int) sim.Duration {
	step := period / sim.Duration(n)
	return step * sim.Duration(i)
}

// FloodMembers aims a forged-request flood at members [0, floodCount).
// Returns the flood handles for inspection.
func (f *Fleet) FloodMembers(floodCount int, ratePerSec float64, auth protocol.AuthKind) []*adversary.Flood {
	var floods []*adversary.Flood
	for i := 0; i < floodCount && i < len(f.Members); i++ {
		m := f.Members[i]
		fl := &adversary.Flood{
			C:        m.C,
			K:        f.K,
			Interval: sim.Duration(float64(sim.Second) / ratePerSec),
			Frame:    adversary.Forged(m.Dev.A.Config().Freshness, auth, 1_000_000),
		}
		fl.Start(0)
		floods = append(floods, fl)
	}
	return floods
}

// RunUntil advances the fleet and settles every member's energy meter.
func (f *Fleet) RunUntil(deadline sim.Time) {
	f.K.RunUntil(deadline)
	for _, m := range f.Members {
		m.Dev.SettleEnergy()
	}
}

// FleetReport aggregates a deployment's outcome, split between flooded and
// healthy members.
type FleetReport struct {
	Provers      int
	Flooded      int
	GenuineOK    uint64 // accepted attestations fleet-wide
	Measurements uint64
	// TapDropped and Undeliverable aggregate the members' channel-loss
	// counters by cause (see channel.Channel); they are reported
	// separately so a wiring gap cannot masquerade as adversarial loss.
	TapDropped            uint64
	Undeliverable         uint64
	FloodedEnergyJ        float64 // mean active energy per flooded member
	HealthyEnergyJ        float64 // mean active energy per healthy member
	FloodedMinBatteryFrac float64
	HealthyMinBatteryFrac float64
}

// Report summarises the fleet, treating the first flooded members as the
// attacked group.
func (f *Fleet) Report(flooded int) FleetReport {
	r := FleetReport{
		Provers:               len(f.Members),
		Flooded:               flooded,
		FloodedMinBatteryFrac: 1,
		HealthyMinBatteryFrac: 1,
	}
	var floodedE, healthyE float64
	for i, m := range f.Members {
		r.GenuineOK += m.V.Accepted
		r.Measurements += m.Dev.A.Stats.Measurements
		r.TapDropped += m.C.TapDropped
		r.Undeliverable += m.C.Undeliverable
		e := m.Dev.ActiveEnergyJoules()
		frac := m.Dev.Battery.Fraction()
		if i < flooded {
			floodedE += e
			if frac < r.FloodedMinBatteryFrac {
				r.FloodedMinBatteryFrac = frac
			}
		} else {
			healthyE += e
			if frac < r.HealthyMinBatteryFrac {
				r.HealthyMinBatteryFrac = frac
			}
		}
	}
	if flooded > 0 {
		r.FloodedEnergyJ = floodedE / float64(flooded)
	}
	if healthy := len(f.Members) - flooded; healthy > 0 {
		r.HealthyEnergyJ = healthyE / float64(healthy)
	}
	return r
}

// RunFleetExperiment is the packaged future-work-1 experiment: n provers,
// the first floodCount of them under a forged-request flood, genuine
// attestation every period for the whole horizon.
func RunFleetExperiment(n, floodCount int, auth protocol.AuthKind, ratePerSec float64, period, horizon sim.Duration) (FleetReport, error) {
	fleet, err := NewFleet(FleetConfig{
		Provers: n,
		Scenario: ScenarioConfig{
			Freshness:  protocol.FreshCounter,
			Auth:       auth,
			Protection: anchor.FullProtection(),
		},
		AttestPeriod: period,
	})
	if err != nil {
		return FleetReport{}, err
	}
	fleet.ScheduleAttestation(horizon)
	floods := fleet.FloodMembers(floodCount, ratePerSec, auth)
	end := fleet.K.Now() + horizon
	fleet.K.At(end, func() {
		for _, fl := range floods {
			fl.Stop()
		}
	})
	fleet.RunUntil(end)
	for _, m := range fleet.Members {
		m.Dev.ChargeSleep(horizon)
	}
	return fleet.Report(floodCount), nil
}

// FleetSweepPoint parameterises one cell of a fleet deployment sweep.
type FleetSweepPoint struct {
	Auth       protocol.AuthKind
	RatePerSec float64
}

// RunFleetSweep runs one independent fleet deployment per point across the
// campaign runner's worker pool — each deployment owns a private kernel,
// so the sweep parallelises without sharing state — and returns the
// reports in point order together with the runner's stats.
func RunFleetSweep(ctx context.Context, workers int, points []FleetSweepPoint,
	n, floodCount int, period, horizon sim.Duration) ([]FleetReport, runner.CampaignStats, error) {
	cells := make([]runner.Cell[FleetReport], len(points))
	for i, p := range points {
		p := p
		cells[i] = runner.Cell[FleetReport]{
			Label: fmt.Sprintf("fleet %v @ %.0f req/s", p.Auth, p.RatePerSec),
			Run: func(ctx context.Context, st *runner.CellStats) (FleetReport, error) {
				st.Sim = horizon
				return RunFleetExperiment(n, floodCount, p.Auth, p.RatePerSec, period, horizon)
			},
		}
	}
	results, stats := runner.Run(ctx, cells, runner.Options{Workers: workers})
	reports, err := runner.Values(results)
	if err != nil {
		return nil, stats, fmt.Errorf("core: fleet sweep: %w", err)
	}
	return reports, stats, nil
}
