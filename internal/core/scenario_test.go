package core

import (
	"bytes"
	"testing"

	"proverattest/internal/anchor"
	"proverattest/internal/energy"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
	"proverattest/internal/sim"
)

func TestEndToEndAttestationOverChannel(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{
		Freshness:  protocol.FreshCounter,
		Auth:       protocol.AuthHMACSHA1,
		Protection: anchor.FullProtection(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.IssueEvery(2*sim.Second, 2*sim.Second, 5)
	s.RunUntil(20 * sim.Second)

	if s.V.Issued != 5 {
		t.Fatalf("Issued = %d, want 5", s.V.Issued)
	}
	if s.V.Accepted != 5 {
		t.Fatalf("Accepted = %d, want 5 (rejected %d, unsolicited %d)",
			s.V.Accepted, s.V.Rejected, s.V.Unsolicited)
	}
	if s.Measurements() != 5 {
		t.Fatalf("Measurements = %d, want 5", s.Measurements())
	}
	if s.ResponsesSeen != 5 {
		t.Fatalf("ResponsesSeen = %d, want 5", s.ResponsesSeen)
	}
}

func TestEndToEndAllAuthSchemes(t *testing.T) {
	for _, kind := range []protocol.AuthKind{
		protocol.AuthNone, protocol.AuthHMACSHA1, protocol.AuthAESCBCMAC,
		protocol.AuthSpeckCBCMAC, protocol.AuthECDSA,
	} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			s, err := NewScenario(ScenarioConfig{
				Freshness:  protocol.FreshCounter,
				Auth:       kind,
				Protection: anchor.FullProtection(),
			})
			if err != nil {
				t.Fatal(err)
			}
			s.IssueAt(2 * sim.Second)
			s.RunUntil(10 * sim.Second)
			if s.V.Accepted != 1 {
				t.Fatalf("%v: Accepted = %d, want 1", kind, s.V.Accepted)
			}
		})
	}
}

func TestECDSACostDominatesRoundTrip(t *testing.T) {
	// §4.1: with ECDSA the prover spends ~170 ms just checking the
	// request signature, before the 754 ms measurement.
	hm, err := NewScenario(ScenarioConfig{
		Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1,
		Protection: anchor.FullProtection(),
	})
	if err != nil {
		t.Fatal(err)
	}
	hm.IssueAt(sim.Second)
	hm.RunUntil(10 * sim.Second)

	ec, err := NewScenario(ScenarioConfig{
		Freshness: protocol.FreshCounter, Auth: protocol.AuthECDSA,
		Protection: anchor.FullProtection(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ec.IssueAt(sim.Second)
	ec.RunUntil(10 * sim.Second)

	deltaMs := (ec.Dev.M.ActiveCycles - hm.Dev.M.ActiveCycles).Millis()
	// ECDSA verify (170.907) − HMAC validate (0.432) ≈ 170.5 ms.
	if deltaMs < 169 || deltaMs < 0 || deltaMs > 172 {
		t.Fatalf("ECDSA round trip cost %.2f ms more than HMAC, want ≈170.5", deltaMs)
	}
}

func TestDeviceBootsAndMeasuresEnergy(t *testing.T) {
	k := sim.NewKernel()
	bat := energy.NewBattery(10)
	dev, err := NewDevice(k, DeviceConfig{
		Anchor: anchor.Config{
			Freshness: protocol.FreshCounter,
			AuthKind:  protocol.AuthHMACSHA1,
		},
		Battery: bat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dev.Boot.OK {
		t.Fatalf("boot failed: %s", dev.Boot.Reason)
	}
	if dev.Boot.MeasuredBytes != AppImageSize {
		t.Fatalf("boot measured %d bytes, want %d", dev.Boot.MeasuredBytes, AppImageSize)
	}
	dev.SettleEnergy()
	if bat.Remaining() >= 10 {
		t.Fatal("boot consumed no energy")
	}
	before := bat.Remaining()
	dev.SettleEnergy() // no new cycles: no double billing
	if bat.Remaining() != before {
		t.Fatal("SettleEnergy double-billed")
	}
	if len(dev.GoldenRAM()) != 512*1024 {
		t.Fatalf("golden RAM is %d bytes", len(dev.GoldenRAM()))
	}
}

func TestScenarioClockDriftRejectsSkewedVerifier(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{
		Freshness:             protocol.FreshTimestamp,
		Auth:                  protocol.AuthHMACSHA1,
		Clock:                 anchor.ClockWide64,
		TimestampWindowMs:     500,
		Protection:            anchor.FullProtection(),
		VerifierClockOffsetMs: -3000, // verifier 3 s behind
	})
	if err != nil {
		t.Fatal(err)
	}
	s.IssueAt(10 * sim.Second)
	s.RunUntil(15 * sim.Second)
	if s.Measurements() != 0 {
		t.Fatal("request from a 3 s-behind verifier was accepted within a 500 ms window")
	}
	if s.Dev.A.Stats.FreshnessRejected != 1 {
		t.Fatalf("FreshnessRejected = %d, want 1", s.Dev.A.Stats.FreshnessRejected)
	}
}

func TestNewScenarioValidation(t *testing.T) {
	// Timestamp freshness without a clock is caught at anchor install.
	if _, err := NewScenario(ScenarioConfig{
		Freshness: protocol.FreshTimestamp,
		Auth:      protocol.AuthHMACSHA1,
	}); err == nil {
		t.Error("timestamp scenario without a clock built")
	}
	// Measured region outside RAM is refused (the verifier would have no
	// golden image for it).
	if _, err := NewScenario(ScenarioConfig{
		Freshness:      protocol.FreshCounter,
		Auth:           protocol.AuthHMACSHA1,
		MeasuredRegion: mcu.Region{Start: mcu.FlashRegion.Start, Size: 1024},
	}); err == nil {
		t.Error("flash measured region accepted without a golden source")
	}
	// Short key for a block cipher scheme.
	if _, err := NewScenario(ScenarioConfig{
		Freshness: protocol.FreshCounter,
		Auth:      protocol.AuthAESCBCMAC,
		AttestKey: []byte("short"),
	}); err == nil {
		t.Error("short key accepted for AES")
	}
}

func TestScenarioCustomAttestKey(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, 20)
	s, err := NewScenario(ScenarioConfig{
		Freshness:  protocol.FreshCounter,
		Auth:       protocol.AuthHMACSHA1,
		AttestKey:  key,
		Protection: anchor.FullProtection(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The custom key was provisioned into the device...
	if got := s.Dev.M.Space.DirectRead(s.Dev.A.KeyAddr(), 20); !bytes.Equal(got, key) {
		t.Fatal("custom key not provisioned")
	}
	// ...and attestation verifies end to end with it.
	s.IssueAt(s.K.Now() + sim.Second)
	s.RunUntil(s.K.Now() + 3*sim.Second)
	if s.V.Accepted != 1 {
		t.Fatal("attestation with custom key failed")
	}
}

func TestVerifierKeyPairIsStable(t *testing.T) {
	a, err := VerifierKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	b, err := VerifierKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	if a.D.Cmp(b.D) != 0 {
		t.Fatal("verifier key pair is not deterministic")
	}
}

// TestGoldenRAMPatternIsDeviceRAM: the image the verifier daemon measures
// against (provision.GoldenRAM, linked without the simulator) is byte for
// byte the prover's attested RAM as NewDevice installs it.
func TestGoldenRAMPatternIsDeviceRAM(t *testing.T) {
	golden := GoldenRAMPattern()
	if len(golden) != int(mcu.RAMRegion.Size) {
		t.Fatalf("golden image is %d bytes, RAM is %d", len(golden), mcu.RAMRegion.Size)
	}
	s, err := NewScenario(defaultScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.Dev.M.Space.DirectRead(mcu.RAMRegion.Start, mcu.RAMRegion.Size), golden) {
		t.Fatal("a booted device's RAM differs from the golden image")
	}
}
