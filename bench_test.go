// Package proverattest_test is the benchmark harness: one benchmark per
// table, figure and numbered result in the paper's evaluation. Host ns/op
// is incidental (the substrate is a simulator); the reproduced quantities
// are emitted as custom metrics — modeled milliseconds on the 24 MHz
// prover, mitigation counts, hardware overhead percentages — so
// `go test -bench . -benchmem` regenerates every number next to the
// paper's value (recorded in EXPERIMENTS.md).
package proverattest_test

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"testing"

	"proverattest/internal/anchor"
	"proverattest/internal/core"
	"proverattest/internal/crypto/cost"
	"proverattest/internal/crypto/ecc"
	"proverattest/internal/crypto/speck"
	"proverattest/internal/hwcost"
	"proverattest/internal/modelcheck"
	"proverattest/internal/protocol"
	"proverattest/internal/sim"
)

// ---------------------------------------------------------------- Table 1

// BenchmarkTable1_SHA1HMAC runs the real HMAC-SHA1 over one 64-byte block
// under a held key and reports the modeled prover latency (paper: 0.340 +
// 0.092 ms).
func BenchmarkTable1_SHA1HMAC(b *testing.B) {
	mac := protocol.NewMAC(bytes.Repeat([]byte{0x4b}, 20))
	msg := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		mac.Tag(msg)
	}
	b.ReportMetric(cost.HMACSHA1(64).Millis(), "model_ms/op")
	b.ReportMetric(0.340+0.092, "paper_ms/op")
}

// BenchmarkTable1_AES128CBC_Encrypt covers the AES-128 CBC encrypt row
// (paper: 0.288 ms per 16-byte block, key expansion 0.074 ms).
func BenchmarkTable1_AES128CBC_Encrypt(b *testing.B) {
	c, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		b.Fatal(err)
	}
	cbc := cipher.NewCBCEncrypter(c, make([]byte, 16))
	blk := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		cbc.CryptBlocks(blk, blk)
	}
	b.ReportMetric(cost.AESEncryptBlock.Millis(), "model_ms/block")
	b.ReportMetric(0.288, "paper_ms/block")
}

// BenchmarkTable1_AES128CBC_Decrypt covers the AES decrypt row (0.570 ms).
func BenchmarkTable1_AES128CBC_Decrypt(b *testing.B) {
	c, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		b.Fatal(err)
	}
	cbc := cipher.NewCBCDecrypter(c, make([]byte, 16))
	blk := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		cbc.CryptBlocks(blk, blk)
	}
	b.ReportMetric(cost.AESDecryptBlock.Millis(), "model_ms/block")
	b.ReportMetric(0.570, "paper_ms/block")
}

// BenchmarkTable1_Speck64128CBC covers the Speck rows (0.017/0.015 ms per
// 8-byte block, key expansion 0.016 ms).
func BenchmarkTable1_Speck64128CBC(b *testing.B) {
	c, err := speck.New(make([]byte, 16))
	if err != nil {
		b.Fatal(err)
	}
	cbc := cipher.NewCBCEncrypter(c, make([]byte, 8))
	blk := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		cbc.CryptBlocks(blk, blk)
	}
	b.ReportMetric(cost.SpeckEncryptBlock.Millis(), "model_ms/block")
	b.ReportMetric(0.017, "paper_ms/block")
}

// BenchmarkTable1_ECDSASign covers the ECC sign row (183.464 ms).
func BenchmarkTable1_ECDSASign(b *testing.B) {
	key, err := ecc.GenerateKey([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("attestation request")
	for i := 0; i < b.N; i++ {
		if _, err := ecc.Sign(key, msg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cost.ECDSASign.Millis(), "model_ms/op")
	b.ReportMetric(183.464, "paper_ms/op")
}

// BenchmarkTable1_ECDSAVerify covers the ECC verify row (170.907 ms).
func BenchmarkTable1_ECDSAVerify(b *testing.B) {
	key, err := ecc.GenerateKey([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("attestation request")
	sig, err := ecc.Sign(key, msg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if !ecc.Verify(key.Public, msg, sig) {
			b.Fatal("verification failed")
		}
	}
	b.ReportMetric(cost.ECDSAVerify.Millis(), "model_ms/op")
	b.ReportMetric(170.907, "paper_ms/op")
}

// ------------------------------------------------------------ Section 3.1

// BenchmarkSection3_1_MemoryMAC performs the full attestation measurement
// (request parse + auth + HMAC over 512 KB RAM) end to end on the
// simulated prover and reports the modeled prover time (paper: 754.032 ms).
func BenchmarkSection3_1_MemoryMAC(b *testing.B) {
	var modeled float64
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario(core.ScenarioConfig{
			Freshness:  protocol.FreshNone,
			Auth:       protocol.AuthNone,
			Protection: anchor.FullProtection(),
		})
		if err != nil {
			b.Fatal(err)
		}
		before := s.Dev.M.ActiveCycles
		s.IssueAt(s.K.Now() + sim.Millisecond)
		s.RunUntil(s.K.Now() + 2*sim.Second)
		if s.Measurements() != 1 {
			b.Fatal("measurement did not run")
		}
		modeled = (s.Dev.M.ActiveCycles - before).Millis()
	}
	b.ReportMetric(modeled, "model_ms/attestation")
	b.ReportMetric(754.032, "paper_ms/attestation")
}

// ------------------------------------------------------------ Section 4.1

// BenchmarkSection4_1_RequestAuth measures the prover-side cost of
// rejecting one forged request under each authentication scheme — the
// quantity that decides whether authentication itself is a DoS vector.
func BenchmarkSection4_1_RequestAuth(b *testing.B) {
	for _, kind := range []protocol.AuthKind{
		protocol.AuthHMACSHA1, protocol.AuthAESCBCMAC,
		protocol.AuthSpeckCBCMAC, protocol.AuthECDSA,
	} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				res, err := core.RunFloodExperiment(kind, 10, 10*sim.Second)
				if err != nil {
					b.Fatal(err)
				}
				if res.Measurements != 0 {
					b.Fatal("forged request measured")
				}
				modeled = float64(res.ActiveCycles-res.BootCycles) / float64(res.AuthRejected) / cost.CyclesPerMilli
			}
			b.ReportMetric(modeled, "model_ms/reject")
		})
	}
}

// ---------------------------------------------------------------- Table 2

// BenchmarkTable2_AttackMatrix regenerates the full attack × freshness
// matrix by live simulation and reports how many of the nine cells agree
// with the paper (must be 9).
func BenchmarkTable2_AttackMatrix(b *testing.B) {
	var agree int
	for i := 0; i < b.N; i++ {
		results, err := core.RunMatrix()
		if err != nil {
			b.Fatal(err)
		}
		agree = 0
		for _, r := range results {
			if r.Mitigated == core.PaperTable2[r.Attack][r.Freshness] {
				agree++
			}
		}
	}
	if agree != 9 {
		b.Fatalf("only %d/9 cells match the paper", agree)
	}
	b.ReportMetric(float64(agree), "cells_matching_paper")
}

// BenchmarkTable2_ModelChecked verifies Table 2 a second, independent way:
// exhaustive bounded exploration of every adversary schedule (replay,
// reorder and delay emerge from the Dolev-Yao action set rather than being
// scripted). All nine verdicts must match the paper.
func BenchmarkTable2_ModelChecked(b *testing.B) {
	var states int
	var agree int
	for i := 0; i < b.N; i++ {
		verdicts, n, err := modelcheck.Table2Verdicts(modelcheck.DefaultBounds())
		if err != nil {
			b.Fatal(err)
		}
		states = n
		agree = 0
		expected := map[string]map[modelcheck.Scheme]bool{
			"replay":  {modelcheck.SchemeNonceHistory: true, modelcheck.SchemeCounter: true, modelcheck.SchemeTimestamp: true},
			"reorder": {modelcheck.SchemeNonceHistory: false, modelcheck.SchemeCounter: true, modelcheck.SchemeTimestamp: true},
			"delay":   {modelcheck.SchemeNonceHistory: false, modelcheck.SchemeCounter: false, modelcheck.SchemeTimestamp: true},
		}
		for attack, row := range expected {
			for scheme, want := range row {
				if verdicts[attack][scheme] == want {
					agree++
				}
			}
		}
	}
	if agree != 9 {
		b.Fatalf("only %d/9 model-checked cells match the paper", agree)
	}
	b.ReportMetric(float64(states), "states_explored")
	b.ReportMetric(float64(agree), "cells_matching_paper")
}

// ------------------------------------------------------------- Section 5

// BenchmarkSection5_RoamingMatrix runs every Adv_roam campaign against
// protected and unprotected provers; the expected pattern (attack succeeds
// iff unprotected) must hold in all 16 runs.
func BenchmarkSection5_RoamingMatrix(b *testing.B) {
	var asExpected int
	for i := 0; i < b.N; i++ {
		asExpected = 0
		for _, target := range core.AllRoamTargets {
			for _, protected := range []bool{false, true} {
				res, err := core.RunRoamingCampaign(target, protected)
				if err != nil {
					b.Fatal(err)
				}
				if res.AttackSucceeded == !protected {
					asExpected++
				}
			}
		}
	}
	if asExpected != 16 {
		b.Fatalf("only %d/16 campaigns behaved as the paper predicts", asExpected)
	}
	b.ReportMetric(float64(asExpected), "campaigns_as_predicted")
}

// -------------------------------------------------------------- Figure 1

// BenchmarkFigure1a_BaseConfig exercises the base mitigation design: wide
// 64-bit hardware clock, K_Attest + counter_R + clock under locked EA-MPU
// rules; ten timestamped attestation rounds must all succeed.
func BenchmarkFigure1a_BaseConfig(b *testing.B) {
	var accepted uint64
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario(core.ScenarioConfig{
			Freshness:         protocol.FreshTimestamp,
			Auth:              protocol.AuthHMACSHA1,
			Clock:             anchor.ClockWide64,
			TimestampWindowMs: 1000,
			Protection:        anchor.FullProtection(),
		})
		if err != nil {
			b.Fatal(err)
		}
		s.IssueEvery(2*sim.Second, 2*sim.Second, 10)
		s.RunUntil(30 * sim.Second)
		accepted = s.V.Accepted
	}
	if accepted != 10 {
		b.Fatalf("accepted %d/10 rounds", accepted)
	}
	b.ReportMetric(float64(accepted), "rounds_accepted")
}

// BenchmarkFigure1b_AdvancedConfig exercises the SW-clock design across
// many Clock_LSB wrap-arounds (one every 2.80 s): Code_Clock must keep
// Clock_MSB current so timestamped rounds keep verifying.
func BenchmarkFigure1b_AdvancedConfig(b *testing.B) {
	var accepted, ticks uint64
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario(core.ScenarioConfig{
			Freshness:         protocol.FreshTimestamp,
			Auth:              protocol.AuthHMACSHA1,
			Clock:             anchor.ClockSW,
			TimestampWindowMs: 1000,
			Protection:        anchor.FullProtection(),
		})
		if err != nil {
			b.Fatal(err)
		}
		s.IssueEvery(5*sim.Second, 5*sim.Second, 12)
		s.RunUntil(70 * sim.Second)
		accepted = s.V.Accepted
		ticks = s.Dev.A.Stats.ClockTicks
	}
	if accepted != 12 {
		b.Fatalf("accepted %d/12 rounds", accepted)
	}
	if ticks < 20 {
		b.Fatalf("Code_Clock ran only %d times across 70 s", ticks)
	}
	b.ReportMetric(float64(accepted), "rounds_accepted")
	b.ReportMetric(float64(ticks), "clock_wraps_served")
}

// ---------------------------------------------------------------- Table 3

// BenchmarkTable3_HardwareCost evaluates the additive area model for every
// configuration and reports the baseline totals (paper: 6038 / 15142).
func BenchmarkTable3_HardwareCost(b *testing.B) {
	var base hwcost.Cost
	for i := 0; i < b.N; i++ {
		base = hwcost.Baseline().Total()
		for _, cfg := range hwcost.AllConfigs() {
			_ = cfg.Total()
		}
	}
	b.ReportMetric(float64(base.Registers), "baseline_registers")
	b.ReportMetric(float64(base.LUTs), "baseline_LUTs")
}

// ------------------------------------------------------------ Section 6.3

// BenchmarkSection6_3_Overhead reports each clock design's register and
// LUT overhead percentages (paper: 2.98/1.62, 2.45/1.41, 5.76/3.61).
func BenchmarkSection6_3_Overhead(b *testing.B) {
	configs := hwcost.AllConfigs()[1:]
	var ovh []hwcost.Overhead
	for i := 0; i < b.N; i++ {
		ovh = ovh[:0]
		for _, cfg := range configs {
			ovh = append(ovh, hwcost.OverheadVsBaseline(cfg))
		}
	}
	b.ReportMetric(ovh[0].RegisterPercent, "clock64_reg_pct")
	b.ReportMetric(ovh[0].LUTPercent, "clock64_lut_pct")
	b.ReportMetric(ovh[1].RegisterPercent, "clock32_reg_pct")
	b.ReportMetric(ovh[1].LUTPercent, "clock32_lut_pct")
	b.ReportMetric(ovh[2].RegisterPercent, "swclock_reg_pct")
	b.ReportMetric(ovh[2].LUTPercent, "swclock_lut_pct")
}

// -------------------------------------------------------------- Extensions

// BenchmarkExtension_BatteryDoS quantifies the motivation experiment: the
// coin-cell lifetime ratio between an authenticated and an unauthenticated
// prover under a 10 req/s forged-request flood.
func BenchmarkExtension_BatteryDoS(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		open, err := core.RunFloodExperiment(protocol.AuthNone, 10, 30*sim.Second)
		if err != nil {
			b.Fatal(err)
		}
		auth, err := core.RunFloodExperiment(protocol.AuthSpeckCBCMAC, 10, 30*sim.Second)
		if err != nil {
			b.Fatal(err)
		}
		ratio = auth.LifetimeDays / open.LifetimeDays
	}
	if ratio < 50 {
		b.Fatalf("lifetime improvement only %.1f×, expected ≫50×", ratio)
	}
	b.ReportMetric(ratio, "lifetime_improvement_x")
}

// BenchmarkExtension_IoTFleet deploys a 12-prover fleet (the paper's
// future-work item 1) with a quarter of the devices under forged-request
// flood and reports the per-device energy asymmetry the adversary induces
// when requests are not authenticated.
func BenchmarkExtension_IoTFleet(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		report, err := core.RunFleetExperiment(12, 3, protocol.AuthNone, 10,
			60*sim.Second, 5*sim.Minute)
		if err != nil {
			b.Fatal(err)
		}
		gap = report.FloodedEnergyJ / report.HealthyEnergyJ
	}
	if gap < 20 {
		b.Fatalf("flooded/healthy energy gap %.1f×, expected ≥20×", gap)
	}
	b.ReportMetric(gap, "flooded_vs_healthy_energy_x")
}

// BenchmarkExtension_PrimaryTaskStarvation measures how badly a forged-
// request flood delays the prover's primary task (a ≈1 ms SP16 sensor
// program every 100 ms): the paper's "takes Prv away from performing its
// primary tasks", in worst-case latency.
func BenchmarkExtension_PrimaryTaskStarvation(b *testing.B) {
	var openLatencyMs, authLatencyMs float64
	for i := 0; i < b.N; i++ {
		open, err := core.RunStarvationExperiment(protocol.AuthNone, 10,
			100*sim.Millisecond, 20*sim.Second)
		if err != nil {
			b.Fatal(err)
		}
		auth, err := core.RunStarvationExperiment(protocol.AuthHMACSHA1, 10,
			100*sim.Millisecond, 20*sim.Second)
		if err != nil {
			b.Fatal(err)
		}
		openLatencyMs = open.WorstLatency.Milliseconds()
		authLatencyMs = auth.WorstLatency.Milliseconds()
	}
	if openLatencyMs < 100*authLatencyMs {
		b.Fatalf("starvation contrast too small: %.1f ms vs %.1f ms", openLatencyMs, authLatencyMs)
	}
	b.ReportMetric(openLatencyMs, "worst_sensor_latency_ms_noauth")
	b.ReportMetric(authLatencyMs, "worst_sensor_latency_ms_hmac")
}

// BenchmarkExtension_ClockDrift sweeps verifier clock offsets against the
// timestamp policy (window 1000 ms, skew 100 ms) and reports the width of
// the acceptance band — the synchronisation requirement the paper defers
// to future work.
func BenchmarkExtension_ClockDrift(b *testing.B) {
	offsets := []int64{-2000, -1000, -500, -100, 0, 50, 100, 500, 2000}
	var acceptedBand int
	for i := 0; i < b.N; i++ {
		results, err := core.RunDriftSweep(offsets, 1000, 100)
		if err != nil {
			b.Fatal(err)
		}
		acceptedBand = 0
		for _, r := range results {
			if r.Accepted {
				acceptedBand++
			}
		}
	}
	b.ReportMetric(float64(acceptedBand), "offsets_accepted")
	b.ReportMetric(float64(len(offsets)), "offsets_swept")
}
