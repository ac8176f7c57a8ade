package core

import (
	"context"
	"fmt"

	"proverattest/internal/adversary"
	"proverattest/internal/anchor"
	"proverattest/internal/crypto/cost"
	"proverattest/internal/energy"
	"proverattest/internal/protocol"
	"proverattest/internal/runner"
	"proverattest/internal/sim"
)

// FloodResult quantifies the §3.1 DoS-by-attestation argument: a verifier
// impersonator floods the prover with requests; without authentication
// each one burns a full ≈754 ms measurement, with authentication each is
// rejected after a sub-millisecond tag check.
type FloodResult struct {
	Auth         protocol.AuthKind
	RatePerSec   float64
	Duration     sim.Duration
	Injected     int
	Measurements uint64
	AuthRejected uint64
	ActiveCycles cost.Cycles
	// BootCycles is the secure-boot share of ActiveCycles, so per-request
	// costs can be computed net of the one-time boot.
	BootCycles   cost.Cycles
	EnergyJoules float64
	DutyCyclePct float64
	// LifetimeDays projects how long a CR2032 coin cell survives under a
	// sustained flood at this rate.
	LifetimeDays float64
}

// RunFloodExperiment floods a prover configured with the given request
// authentication for the given simulated duration and reports the damage.
func RunFloodExperiment(auth protocol.AuthKind, ratePerSec float64, duration sim.Duration) (FloodResult, error) {
	res := FloodResult{Auth: auth, RatePerSec: ratePerSec, Duration: duration}

	battery := energy.CoinCellCR2032()
	s, err := NewScenario(ScenarioConfig{
		Freshness:  protocol.FreshCounter,
		Auth:       auth,
		Protection: anchor.FullProtection(),
		Battery:    battery,
	})
	if err != nil {
		return res, err
	}

	// The impersonator has no key: it sends well-framed requests with
	// garbage tags and climbing counters. Under AuthNone the empty tag is
	// "valid" and every frame triggers a measurement.
	flood := &adversary.Flood{
		C:        s.C,
		K:        s.K,
		Interval: sim.Duration(float64(sim.Second) / ratePerSec),
		Frame:    adversary.Forged(protocol.FreshCounter, auth, 1),
	}
	end := s.K.Now() + duration
	flood.Start(0)
	s.K.At(end, func() { flood.Stop() })
	s.RunUntil(end)
	s.Dev.ChargeSleep(duration)

	res.Injected = flood.Injected
	res.Measurements = s.Dev.A.Stats.Measurements
	res.AuthRejected = s.Dev.A.Stats.AuthRejected
	res.ActiveCycles = s.Dev.M.ActiveCycles
	res.BootCycles = s.Dev.Boot.Cycles
	res.EnergyJoules = s.Dev.Power.EnergyJoules(s.Dev.M.ActiveCycles, duration)
	res.DutyCyclePct = 100 * float64(res.ActiveCycles) / (duration.Seconds() * cost.ClockHz)
	if res.DutyCyclePct > 100 {
		res.DutyCyclePct = 100
	}
	activeCyclesPerSec := float64(res.ActiveCycles) / duration.Seconds()
	res.LifetimeDays = energy.DaysFromSeconds(
		energy.LifetimeSeconds(energy.CoinCellCR2032(), s.Dev.Power, activeCyclesPerSec))
	return res, nil
}

// RunFloodSweep runs one independent flood experiment per authentication
// scheme across the campaign runner's worker pool and returns the results
// in input order with the campaign stats.
func RunFloodSweep(ctx context.Context, workers int, auths []protocol.AuthKind,
	ratePerSec float64, duration sim.Duration) ([]FloodResult, runner.CampaignStats, error) {
	cells := make([]runner.Cell[FloodResult], len(auths))
	for i, auth := range auths {
		auth := auth
		cells[i] = runner.Cell[FloodResult]{
			Label: fmt.Sprintf("flood %v", auth),
			Run: func(ctx context.Context, st *runner.CellStats) (FloodResult, error) {
				st.Sim = duration
				return RunFloodExperiment(auth, ratePerSec, duration)
			},
		}
	}
	results, stats := runner.Run(ctx, cells, runner.Options{Workers: workers})
	out, err := runner.Values(results)
	if err != nil {
		return nil, stats, fmt.Errorf("core: flood sweep: %w", err)
	}
	return out, stats, nil
}

// DriftResult is one point of the clock-synchronisation sweep (the
// paper's future-work item 2): how far may the verifier's clock drift from
// the prover's before genuine, timely requests are refused?
type DriftResult struct {
	OffsetMs int64
	Accepted bool
}

// RunDriftSweep issues one genuine timestamped request per offset and
// reports whether the prover accepted it. The offsets are independent
// scenarios, so the sweep runs on the campaign runner's default pool.
func RunDriftSweep(offsetsMs []int64, windowMs, skewMs uint64) ([]DriftResult, error) {
	cells := make([]runner.Cell[DriftResult], len(offsetsMs))
	for i, off := range offsetsMs {
		off := off
		cells[i] = runner.Cell[DriftResult]{
			Label: fmt.Sprintf("drift %+d ms", off),
			Run: func(ctx context.Context, st *runner.CellStats) (DriftResult, error) {
				s, err := NewScenario(ScenarioConfig{
					Freshness:             protocol.FreshTimestamp,
					Auth:                  protocol.AuthHMACSHA1,
					Clock:                 anchor.ClockWide64,
					TimestampWindowMs:     windowMs,
					TimestampSkewMs:       skewMs,
					Protection:            anchor.FullProtection(),
					VerifierClockOffsetMs: off,
				})
				if err != nil {
					return DriftResult{}, err
				}
				s.IssueAt(10 * sim.Second)
				s.RunUntil(15 * sim.Second)
				st.Sim = sim.Duration(s.K.Now())
				return DriftResult{OffsetMs: off, Accepted: s.Measurements() == 1}, nil
			},
		}
	}
	results, _ := runner.Run(context.Background(), cells, runner.Options{})
	return runner.Values(results)
}
