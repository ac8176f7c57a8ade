package core

import (
	"context"
	"fmt"

	"proverattest/internal/adversary"
	"proverattest/internal/anchor"
	"proverattest/internal/channel"
	"proverattest/internal/crypto/cost"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
	"proverattest/internal/runner"
	"proverattest/internal/sim"
)

// RoamTarget names one Adv_roam Phase II tampering strategy from §5/§6.2.
type RoamTarget int

// The roaming-adversary targets.
const (
	// RoamCounter: roll counter_R back to i−1, replay attreq(i). The
	// paper's flagship attack — undetectable after the fact.
	RoamCounter RoamTarget = iota
	// RoamClockReset: set the hardware clock to t_i−δ, wait δ, replay
	// attreq(t_i). Leaves the clock behind (evidence).
	RoamClockReset
	// RoamClockMSB: overwrite the SW-clock's Clock_MSB word directly.
	RoamClockMSB
	// RoamIDTPatch: redirect the timer vector so Code_Clock stops running
	// and the SW clock stalls.
	RoamIDTPatch
	// RoamMaskIRQ: disable the timer interrupt line — the other way to
	// stall the SW clock.
	RoamMaskIRQ
	// RoamKeyExtract: steal K_Attest and forge fresh requests at will.
	RoamKeyExtract
	// RoamKeyOverwrite: replace the flash-resident K_Attest with an
	// adversary-chosen key and sign requests under it.
	RoamKeyOverwrite
	// RoamMPUReconfig: disable the protection rules themselves at runtime
	// (defeated by the secure-boot lockdown).
	RoamMPUReconfig
)

func (t RoamTarget) String() string {
	switch t {
	case RoamCounter:
		return "counter rollback"
	case RoamClockReset:
		return "clock reset"
	case RoamClockMSB:
		return "Clock_MSB overwrite"
	case RoamIDTPatch:
		return "IDT patch"
	case RoamMaskIRQ:
		return "timer IRQ mask"
	case RoamKeyExtract:
		return "key extraction"
	case RoamKeyOverwrite:
		return "key overwrite"
	case RoamMPUReconfig:
		return "MPU reconfiguration"
	}
	return fmt.Sprintf("target(%d)", int(t))
}

// RoamingResult reports one three-phase campaign.
type RoamingResult struct {
	Target    RoamTarget
	Protected bool

	// TamperOutcomes are the Phase II hardware verdicts.
	TamperOutcomes []adversary.Outcome
	// HonestMeasurements is the prover work the genuine traffic warrants.
	HonestMeasurements uint64
	// Measurements is the prover work actually performed.
	Measurements uint64
	// AttackSucceeded: the Phase III delivery triggered unauthorized work.
	AttackSucceeded bool
	// CounterRestored: counter_R ended at its pre-attack value, making the
	// counter attack undetectable after the fact (§5).
	CounterRestored bool
	// ClockBehindMs: how far the prover clock lags real time at the end —
	// the residual evidence the paper notes for the timestamp attack.
	ClockBehindMs int64
	// DenialsLogged counts EA-MPU denials the bus tracer captured during
	// the campaign: on a protected prover, Phase II probing leaves this
	// forensic fingerprint even though the attack itself fails.
	DenialsLogged uint64
	// SimEnd is the simulated time the campaign's private kernel reached,
	// fed into the campaign runner's aggregate stats.
	SimEnd sim.Duration
}

// RunRoamingCampaign executes the full three-phase Adv_roam script against
// a prover with or without the corresponding protection, and reports what
// actually happened.
func RunRoamingCampaign(target RoamTarget, protected bool) (RoamingResult, error) {
	res := RoamingResult{Target: target, Protected: protected}

	// Build the scenario: freshness and clock depend on the target.
	cfg := ScenarioConfig{
		Auth:              protocol.AuthHMACSHA1,
		TimestampWindowMs: 1000,
	}
	switch target {
	case RoamCounter, RoamKeyExtract, RoamKeyOverwrite, RoamMPUReconfig:
		cfg.Freshness = protocol.FreshCounter
	case RoamClockReset:
		cfg.Freshness = protocol.FreshTimestamp
		cfg.Clock = anchor.ClockWide64
	case RoamClockMSB, RoamIDTPatch, RoamMaskIRQ:
		cfg.Freshness = protocol.FreshTimestamp
		cfg.Clock = anchor.ClockSW
	}
	if target == RoamKeyOverwrite {
		// Overwriting is only meaningful for a writable key location.
		cfg.KeyLocation = anchor.KeyInFlash
	}

	prot := anchor.Protection{Key: true, LockMPU: true} // SMART baseline, always on
	if protected {
		prot = anchor.FullProtection()
	}
	if target == RoamKeyExtract || target == RoamKeyOverwrite {
		// These campaigns attack the key rule itself.
		prot.Key = protected
	}
	if target == RoamMPUReconfig {
		// The campaign attacks the lockdown: rules installed either way.
		prot = anchor.FullProtection()
		prot.LockMPU = protected
	}
	cfg.Protection = prot

	// Phase I: eavesdrop on genuine traffic.
	rec := &adversary.Recorder{}
	cfg.Tap = rec
	s, err := NewScenario(cfg)
	if err != nil {
		return res, err
	}
	// Arm the denied-access tracer: a protected prover cannot stop the
	// adversary from *probing*, but every refused probe is logged.
	tracer := mcu.NewTracer(64, true)
	s.Dev.M.AttachTracer(tracer)

	// One genuine attestation at t=10 s (recorded by the adversary).
	tIssue := 10 * sim.Second
	// Phase II timing: normally t=12 s. For attacks that *stall* the SW
	// clock, the tamper must land inside the same Clock_LSB wrap window as
	// the recording (wraps are 2.80 s apart; the window containing t=10 s
	// ends at 11.18 s) — freezing the MSB any later pins the clock to a
	// later epoch from which the recorded timestamp is unreachable.
	tTamper := 12 * sim.Second
	switch target {
	case RoamClockMSB, RoamIDTPatch, RoamMaskIRQ:
		tTamper = tIssue + 900*sim.Millisecond
	}
	s.IssueAt(tIssue)
	s.RunUntil(tTamper)
	if len(rec.Frames) == 0 {
		return res, fmt.Errorf("core: phase I recorded no frames")
	}
	recorded := rec.Recorded(0)
	res.HonestMeasurements = 1 // the single genuine request

	// Phase II: infect, tamper, erase traces.
	roam := adversary.Infect(s.Dev.M, s.K)
	preCounter := s.Dev.A.ReadCounter()

	// Phase III timing depends on the target; default replay at t=20 s.
	replayAt := 20 * sim.Second

	switch target {
	case RoamCounter:
		cur, _ := roam.ReadCounter()
		res.TamperOutcomes = append(res.TamperOutcomes, roam.RollbackCounter(cur-1))

	case RoamClockReset:
		// Recorded request carries t_i ≈ 10 000 ms. Set the clock to
		// t_i − δ with δ = 8 s, then replay δ later: the prover clock then
		// reads ≈ t_i and accepts the stale request.
		req, err := protocol.DecodeAttReq(recorded.Payload)
		if err != nil {
			return res, err
		}
		const deltaMs = 8000
		res.TamperOutcomes = append(res.TamperOutcomes, roam.ResetWideClock(req.Timestamp-deltaMs))
		replayAt = s.K.Now() + deltaMs*sim.Millisecond

	case RoamClockMSB:
		// Freeze the clock into the past by rewinding the MSB word; replay
		// when the LSB phase matches the recording so the full reading
		// reproduces t_i exactly (deterministic wrap arithmetic).
		msbAtRecording := uint32(uint64(tIssue) * 3 / 125 >> anchor.LSBWidth)
		res.TamperOutcomes = append(res.TamperOutcomes, roam.OverwriteClockMSB(msbAtRecording))
		replayAt = wrapAlignedReplay(tIssue, 7)
		// An unprotected prover lets the ISR keep incrementing from the
		// rewound value; after k wraps the clock reads t_i + (k·wrap −
		// rewind) … to keep the script exact we also stop the ISR.
		res.TamperOutcomes = append(res.TamperOutcomes, roam.PatchIDT(0))

	case RoamIDTPatch:
		res.TamperOutcomes = append(res.TamperOutcomes, roam.PatchIDT(0))
		replayAt = wrapAlignedReplay(tIssue, 7)

	case RoamMaskIRQ:
		res.TamperOutcomes = append(res.TamperOutcomes, roam.MaskTimerIRQ())
		replayAt = wrapAlignedReplay(tIssue, 7)

	case RoamKeyExtract:
		out := roam.ExtractKey(s.Dev.A.KeyAddr())
		res.TamperOutcomes = append(res.TamperOutcomes, out)
		if out.Succeeded {
			// Forge a brand-new, perfectly fresh request with the stolen
			// key: full verifier impersonation.
			forged := &protocol.AttReq{
				Freshness: protocol.FreshCounter,
				Auth:      protocol.AuthHMACSHA1,
				Nonce:     0xDEAD,
				Counter:   preCounter + 100,
			}
			forgedAuth := protocol.NewHMACAuth(out.Loot)
			tag, err := forgedAuth.Sign(forged.SignedBytes())
			if err != nil {
				return res, err
			}
			forged.Tag = tag
			recorded.Payload = forged.Encode()
		}

	case RoamKeyOverwrite:
		evil := make([]byte, anchor.KeySize)
		for i := range evil {
			evil[i] = 0xE0 + byte(i)
		}
		out := roam.OverwriteKey(s.Dev.A.KeyAddr(), evil)
		res.TamperOutcomes = append(res.TamperOutcomes, out)
		if out.Succeeded {
			forged := &protocol.AttReq{
				Freshness: protocol.FreshCounter,
				Auth:      protocol.AuthHMACSHA1,
				Nonce:     0xBEEF,
				Counter:   preCounter + 100,
			}
			forgedAuth := protocol.NewHMACAuth(evil)
			tag, err := forgedAuth.Sign(forged.SignedBytes())
			if err != nil {
				return res, err
			}
			forged.Tag = tag
			recorded.Payload = forged.Encode()
		}

	case RoamMPUReconfig:
		// Disable the counter rule (index 1 in FullProtection's policy)
		// then roll the counter back through the opened hole.
		res.TamperOutcomes = append(res.TamperOutcomes, roam.DisableMPURule(1))
		cur, _ := roam.ReadCounter()
		if cur > 0 {
			res.TamperOutcomes = append(res.TamperOutcomes, roam.RollbackCounter(cur-1))
		} else {
			res.TamperOutcomes = append(res.TamperOutcomes, roam.RollbackCounter(0))
		}

	default:
		return res, fmt.Errorf("core: unknown roaming target %v", target)
	}

	res.TamperOutcomes = append(res.TamperOutcomes, roam.EraseTraces())

	// Phase III: replay (or deliver the forged frame).
	s.K.At(replayAt, func() {
		s.C.Inject(channel.Message{
			From:    channel.Verifier,
			To:      channel.Prover,
			Payload: recorded.Payload,
		}, 0)
	})
	s.RunUntil(replayAt + 5*sim.Second)

	res.Measurements = s.Measurements()
	res.SimEnd = sim.Duration(s.K.Now())
	res.AttackSucceeded = res.Measurements > res.HonestMeasurements
	res.CounterRestored = s.Dev.A.ReadCounter() == preCounter
	res.DenialsLogged = tracer.Denials
	if cfg.Clock != anchor.ClockNone {
		realMs := int64(s.K.Now() / sim.Millisecond)
		res.ClockBehindMs = realMs - int64(s.Dev.A.ClockNowMs())
	}
	return res, nil
}

// wrapAlignedReplay returns the absolute time exactly k SW-clock wrap
// periods after t, so the Clock_LSB reading at the replay matches the one
// at t (the deterministic stalled-clock replay window).
func wrapAlignedReplay(t sim.Time, k uint64) sim.Time {
	wrapCycles := uint64(1) << anchor.LSBWidth
	return t + sim.Duration(cost.Cycles(k*wrapCycles).Nanoseconds())
}

// AllRoamTargets lists every campaign in presentation order.
var AllRoamTargets = []RoamTarget{
	RoamCounter, RoamClockReset, RoamClockMSB, RoamIDTPatch,
	RoamMaskIRQ, RoamKeyExtract, RoamKeyOverwrite, RoamMPUReconfig,
}

// RoamingCampaignSpec names one cell of the §5 campaign matrix.
type RoamingCampaignSpec struct {
	Target    RoamTarget
	Protected bool
}

// AllRoamingCampaigns lists every target × protection cell in
// presentation order (each target unprotected first, then protected).
func AllRoamingCampaigns() []RoamingCampaignSpec {
	var specs []RoamingCampaignSpec
	for _, target := range AllRoamTargets {
		for _, protected := range []bool{false, true} {
			specs = append(specs, RoamingCampaignSpec{Target: target, Protected: protected})
		}
	}
	return specs
}

// RunRoamingMatrix executes the full §5 campaign matrix — every roaming
// target against both an unprotected and a protected prover — across the
// campaign runner's worker pool, returning results in presentation order.
func RunRoamingMatrix(ctx context.Context, workers int) ([]RoamingResult, runner.CampaignStats, error) {
	specs := AllRoamingCampaigns()
	cells := make([]runner.Cell[RoamingResult], len(specs))
	for i, spec := range specs {
		spec := spec
		mode := "unprotected"
		if spec.Protected {
			mode = "protected"
		}
		cells[i] = runner.Cell[RoamingResult]{
			Label: fmt.Sprintf("%v (%s)", spec.Target, mode),
			Run: func(ctx context.Context, st *runner.CellStats) (RoamingResult, error) {
				r, err := RunRoamingCampaign(spec.Target, spec.Protected)
				st.Sim = r.SimEnd
				return r, err
			},
		}
	}
	results, stats := runner.Run(ctx, cells, runner.Options{Workers: workers})
	out, err := runner.Values(results)
	if err != nil {
		return nil, stats, fmt.Errorf("core: roaming matrix: %w", err)
	}
	return out, stats, nil
}
