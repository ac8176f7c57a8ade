package core

import (
	"fmt"

	"proverattest/internal/adversary"
	"proverattest/internal/anchor"
	"proverattest/internal/isa"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
	"proverattest/internal/sim"
)

// sensorProgram is the prover's "primary task" (§1/§3.1: control, sensing,
// actuation) as real SP16 machine code: ≈1 ms of computation ending in a
// result stored to RAM. It runs from a flash region outside the app image.
const sensorProgram = `
	li   r1, 7900        ; ~1 ms at 3 cycles/iteration
	li   r2, 0
loop:
	add  r2, r2, r1
	addi r1, r1, -1
	bne  r1, r0, loop
	li   r3, 0x00301000  ; scratch word in SRAM — outside the measured image
	sw   r2, 0(r3)
	halt
`

// SensorProgramRegion is where the sensor task's code lives.
var SensorProgramRegion = mcu.Region{Start: mcu.FlashRegion.Start + 0x60000, Size: 0x1000}

// StarvationResult quantifies how a request flood steals the prover away
// from its primary task.
type StarvationResult struct {
	Auth protocol.AuthKind
	// SensorRuns is how many sensor jobs completed inside the window.
	SensorRuns uint64
	// SensorScheduled is how many were due.
	SensorScheduled uint64
	// WorstLatency is the longest submit→completion delay a sensor job
	// experienced (its own ≈1 ms run time included).
	WorstLatency sim.Duration
	// Measurements is the attacker-induced attestation work.
	Measurements uint64
}

// RunStarvationExperiment runs a prover whose application executes a
// ≈1 ms SP16 sensor program every period, under a forged-request flood,
// and reports how badly the primary task is delayed. This makes the
// paper's core DoS claim — "takes Prv away from performing its primary
// tasks" — directly measurable.
func RunStarvationExperiment(auth protocol.AuthKind, floodRate float64, period, duration sim.Duration) (StarvationResult, error) {
	res := StarvationResult{Auth: auth}
	s, err := NewScenario(ScenarioConfig{
		Freshness:  protocol.FreshCounter,
		Auth:       auth,
		Protection: anchor.FullProtection(),
	})
	if err != nil {
		return res, err
	}

	if _, err := isa.LoadProgram(s.Dev.M, SensorProgramRegion.Start, sensorProgram); err != nil {
		return res, fmt.Errorf("core: assembling sensor program: %w", err)
	}

	// Periodic sensor jobs for the whole window.
	start := s.K.Now()
	end := start + duration
	for t := start + period; t <= end; t += period {
		submitAt := t
		res.SensorScheduled++
		s.K.At(submitAt, func() {
			isa.RunProgram(s.Dev.M, "sensor", SensorProgramRegion, SensorProgramRegion.Start, 100_000,
				func(r isa.Result) {
					if r.Reason != isa.StopHalt {
						return // a crashed sensor task does not count
					}
					res.SensorRuns++
					if latency := s.K.Now() - submitAt; latency > res.WorstLatency {
						res.WorstLatency = latency
					}
				})
		})
	}

	// The flood.
	flood := &adversary.Flood{
		C:        s.C,
		K:        s.K,
		Interval: sim.Duration(float64(sim.Second) / floodRate),
		Frame:    adversary.Forged(protocol.FreshCounter, auth, 1),
	}
	flood.Start(0)
	s.K.At(end, func() { flood.Stop() })
	// A short drain past the window lets a sensor job submitted at the
	// boundary finish its ≈1 ms run; saturation effects dwarf it.
	s.RunUntil(end + 10*sim.Millisecond)

	res.Measurements = s.Dev.A.Stats.Measurements
	return res, nil
}
