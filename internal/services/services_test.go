package services_test

import (
	"bytes"
	"crypto/sha1"
	"testing"

	"proverattest/internal/anchor"
	"proverattest/internal/core"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
	"proverattest/internal/services"
	"proverattest/internal/sim"
)

// serviceRig builds a booted scenario with all services installed.
func serviceRig(t *testing.T, cfg core.ScenarioConfig) *core.Scenario {
	t.Helper()
	cfg.EnableServices = true
	if cfg.Auth == protocol.AuthNone {
		cfg.Auth = protocol.AuthHMACSHA1
	}
	if cfg.Freshness == protocol.FreshNone {
		cfg.Freshness = protocol.FreshCounter
	}
	prot := anchor.FullProtection()
	prot.SyncOffset = true
	cfg.Protection = prot
	s, err := core.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runCommand issues one command and returns the verified response.
func runCommand(t *testing.T, s *core.Scenario, kind protocol.CommandKind, body []byte) *protocol.CommandResp {
	t.Helper()
	var got *protocol.CommandResp
	s.IssueCommandAt(s.K.Now()+sim.Millisecond, kind, body, func(r *protocol.CommandResp) { got = r })
	s.RunUntil(s.K.Now() + 10*sim.Second)
	if got == nil {
		t.Fatal("no command response")
	}
	return got
}

func TestSecureUpdateEndToEnd(t *testing.T) {
	s := serviceRig(t, core.ScenarioConfig{})

	// New firmware fragment for offset 0x2000 of the app image.
	fragment := bytes.Repeat([]byte{0xF1, 0xF2, 0xF3, 0xF4}, 256) // 1 KB
	body := services.EncodeUpdate(services.UpdateRequest{
		Offset: 0x2000,
		Image:  fragment,
		Digest: sha1.Sum(fragment),
	})
	resp := runCommand(t, s, protocol.CmdSecureUpdate, body)
	if resp.Status != protocol.StatusOK {
		t.Fatalf("update status = %d", resp.Status)
	}

	// The flash now contains the fragment.
	got := s.Dev.M.Space.DirectRead(core.AppImageRegion.Start+0x2000, uint32(len(fragment)))
	if !bytes.Equal(got, fragment) {
		t.Fatal("flash does not contain the update")
	}

	// The response digest matches the updated region.
	ur, err := services.DecodeUpdateResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	img := s.Dev.M.Space.DirectRead(core.AppImageRegion.Start, core.AppImageRegion.Size)
	if ur.RegionDigest != sha1.Sum(img) {
		t.Fatal("update response digest does not match the region")
	}
}

func TestSecureUpdateRejectsCorruptFragment(t *testing.T) {
	s := serviceRig(t, core.ScenarioConfig{})
	fragment := []byte("corrupted in transit")
	wrong := sha1.Sum([]byte("what the verifier meant"))
	before := s.Dev.M.Space.DirectRead(core.AppImageRegion.Start+0x100, 20)

	body := services.EncodeUpdate(services.UpdateRequest{Offset: 0x100, Image: fragment, Digest: wrong})
	resp := runCommand(t, s, protocol.CmdSecureUpdate, body)
	if resp.Status != protocol.StatusRefused {
		t.Fatalf("corrupt update status = %d, want refused", resp.Status)
	}
	after := s.Dev.M.Space.DirectRead(core.AppImageRegion.Start+0x100, 20)
	if !bytes.Equal(before, after) {
		t.Fatal("refused update still modified flash")
	}
}

func TestSecureUpdateRejectsOutOfRange(t *testing.T) {
	s := serviceRig(t, core.ScenarioConfig{})
	frag := []byte{1, 2, 3, 4}
	// Offset pushes the write past the app region.
	body := services.EncodeUpdate(services.UpdateRequest{
		Offset: core.AppImageRegion.Size - 2,
		Image:  frag,
		Digest: sha1.Sum(frag),
	})
	resp := runCommand(t, s, protocol.CmdSecureUpdate, body)
	if resp.Status != protocol.StatusRefused {
		t.Fatalf("out-of-range update status = %d, want refused", resp.Status)
	}
}

func TestSecureEraseEndToEnd(t *testing.T) {
	s := serviceRig(t, core.ScenarioConfig{})
	target := mcu.RAMRegion.Start + 0x4000
	const size = 512
	// The target range starts non-zero (device RAM pattern).
	if bytes.Equal(s.Dev.M.Space.DirectRead(target, size), make([]byte, size)) {
		t.Fatal("test precondition: RAM already zero")
	}

	body := services.EncodeErase(services.EraseRequest{Addr: target, Size: size})
	resp := runCommand(t, s, protocol.CmdSecureErase, body)
	if resp.Status != protocol.StatusOK {
		t.Fatalf("erase status = %d", resp.Status)
	}
	if !bytes.Equal(s.Dev.M.Space.DirectRead(target, size), make([]byte, size)) {
		t.Fatal("range not zeroised")
	}
	// Proof of erasure: digest over zeros.
	want := services.ErasureProof(size)
	if !bytes.Equal(resp.Body, want[:]) {
		t.Fatalf("erasure proof = %x, want %x", resp.Body, want)
	}
}

func TestSecureEraseRefusesDisallowedRegion(t *testing.T) {
	s := serviceRig(t, core.ScenarioConfig{})
	// Only RAM is allowed; asking for the flash counter region is refused.
	body := services.EncodeErase(services.EraseRequest{Addr: anchor.CounterAddr, Size: 8})
	resp := runCommand(t, s, protocol.CmdSecureErase, body)
	if resp.Status != protocol.StatusRefused {
		t.Fatalf("disallowed erase status = %d, want refused", resp.Status)
	}
	// Zero-size erases are refused too.
	body = services.EncodeErase(services.EraseRequest{Addr: mcu.RAMRegion.Start, Size: 0})
	resp = runCommand(t, s, protocol.CmdSecureErase, body)
	if resp.Status != protocol.StatusRefused {
		t.Fatalf("zero-size erase status = %d, want refused", resp.Status)
	}
}

func TestClockSyncCorrectsDrift(t *testing.T) {
	// Prover with a wide clock; the verifier runs 300 ms ahead. After a
	// few sync rounds the prover's adjusted clock matches the verifier's.
	s := serviceRig(t, core.ScenarioConfig{
		Clock:                 anchor.ClockWide64,
		VerifierClockOffsetMs: 300,
		MaxSyncStepMs:         200,
	})
	// Two rounds: clamped +200, then +100.
	for i := 0; i < 2; i++ {
		verifierNow := uint64(int64(s.K.Now()/sim.Millisecond) + 300)
		body := services.EncodeSync(services.SyncRequest{VerifierTimeMs: verifierNow})
		resp := runCommand(t, s, protocol.CmdClockSync, body)
		if resp.Status != protocol.StatusOK {
			t.Fatalf("round %d: sync status = %d", i, resp.Status)
		}
	}
	off := s.Dev.A.SyncOffsetMs()
	if off < 295 || off > 305 {
		t.Fatalf("sync offset = %d ms, want ≈300", off)
	}
	// And genuine timestamped traffic from this skewed verifier is now
	// acceptable: switch check via the prover clock directly.
	proverMs := int64(s.Dev.A.ClockNowMs())
	verifierMs := int64(s.K.Now()/sim.Millisecond) + 300
	if d := verifierMs - proverMs; d < -50 || d > 50 {
		t.Fatalf("clocks still %d ms apart after sync", d)
	}
}

func TestClockSyncClampsPerStep(t *testing.T) {
	// A malicious-but-authentic sync trying to rewind the clock by an
	// hour is clamped to one step, keeping the §5 delayed-replay hole
	// closed.
	s := serviceRig(t, core.ScenarioConfig{
		Clock:         anchor.ClockWide64,
		MaxSyncStepMs: 200,
	})
	body := services.EncodeSync(services.SyncRequest{VerifierTimeMs: 0}) // "it is the epoch"
	resp := runCommand(t, s, protocol.CmdClockSync, body)
	if resp.Status != protocol.StatusOK {
		t.Fatalf("sync status = %d", resp.Status)
	}
	sr, err := services.DecodeSyncResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if sr.AppliedDeltaMs != -200 {
		t.Fatalf("applied delta = %d ms, want clamped -200", sr.AppliedDeltaMs)
	}
	if sr.ClampedDeltaMs >= sr.AppliedDeltaMs {
		t.Fatalf("raw delta %d should be far below the applied %d", sr.ClampedDeltaMs, sr.AppliedDeltaMs)
	}
	if off := s.Dev.A.SyncOffsetMs(); off != -200 {
		t.Fatalf("offset = %d, want -200", off)
	}
}

func TestCommandsShareFreshnessWithAttestation(t *testing.T) {
	// A command consumes counter value n; replaying it after an
	// attestation (counter n+1) is stale — one freshness stream.
	s := serviceRig(t, core.ScenarioConfig{})
	req, err := s.V.NewCommand(protocol.CmdSecureErase,
		services.EncodeErase(services.EraseRequest{Addr: mcu.RAMRegion.Start, Size: 64}))
	if err != nil {
		t.Fatal(err)
	}
	frame := req.Encode()
	executed := func() uint64 { return s.Dev.A.Stats.CommandsExecuted }

	s.K.At(s.K.Now()+sim.Millisecond, func() {
		s.C.Send("verifier", "prover", frame)
	})
	s.RunUntil(s.K.Now() + 5*sim.Second)
	if executed() != 1 {
		t.Fatalf("command not executed (%d)", executed())
	}

	// An attestation round advances the shared counter.
	s.IssueAt(s.K.Now() + sim.Millisecond)
	s.RunUntil(s.K.Now() + 5*sim.Second)

	// Replay the recorded command frame: stale counter, refused before
	// the handler runs.
	s.K.At(s.K.Now()+sim.Millisecond, func() {
		s.C.Send("verifier", "prover", frame)
	})
	s.RunUntil(s.K.Now() + 5*sim.Second)
	if executed() != 1 {
		t.Fatal("replayed command executed — freshness streams are not shared")
	}
	if s.Dev.A.Stats.FreshnessRejected == 0 {
		t.Fatal("replay not counted as a freshness reject")
	}
}

func TestForgedCommandRejectedCheaply(t *testing.T) {
	s := serviceRig(t, core.ScenarioConfig{})
	forged := &protocol.CommandReq{
		Kind:      protocol.CmdSecureErase,
		Freshness: protocol.FreshCounter,
		Auth:      protocol.AuthHMACSHA1,
		Counter:   99,
		Body:      services.EncodeErase(services.EraseRequest{Addr: mcu.RAMRegion.Start, Size: mcu.RAMRegion.Size}),
		Tag:       bytes.Repeat([]byte{0xAA}, 20),
	}
	before := s.Dev.M.ActiveCycles
	s.K.At(s.K.Now()+sim.Millisecond, func() {
		s.C.Send("verifier", "prover", forged.Encode())
	})
	s.RunUntil(s.K.Now() + 5*sim.Second)
	if s.Dev.A.Stats.CommandsExecuted != 0 {
		t.Fatal("forged command executed")
	}
	if s.Dev.A.Stats.AuthRejected != 1 {
		t.Fatalf("AuthRejected = %d, want 1", s.Dev.A.Stats.AuthRejected)
	}
	if spent := (s.Dev.M.ActiveCycles - before).Millis(); spent > 2 {
		t.Fatalf("rejecting a forged command cost %.2f ms, want <2", spent)
	}
}

func TestUnregisteredCommandRefused(t *testing.T) {
	// A scenario without services still answers (refuses) authentic
	// commands, with a sealed verdict.
	cfg := core.ScenarioConfig{
		Freshness:  protocol.FreshCounter,
		Auth:       protocol.AuthHMACSHA1,
		Protection: anchor.FullProtection(),
	}
	s, err := core.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got *protocol.CommandResp
	s.IssueCommandAt(s.K.Now()+sim.Millisecond, protocol.CmdSecureErase, nil,
		func(r *protocol.CommandResp) { got = r })
	s.RunUntil(s.K.Now() + 5*sim.Second)
	if got == nil {
		t.Fatal("no response to unregistered command")
	}
	if got.Status != protocol.StatusRefused {
		t.Fatalf("status = %d, want refused", got.Status)
	}
}

func TestBodyCodecs(t *testing.T) {
	if _, err := services.DecodeUpdate([]byte("short")); err == nil {
		t.Error("short update body decoded")
	}
	if _, err := services.DecodeUpdate(make([]byte, 8+sha1.Size+5)); err == nil {
		t.Error("length-mismatched update body decoded")
	}
	if _, err := services.DecodeErase([]byte{1, 2, 3}); err == nil {
		t.Error("short erase body decoded")
	}
	if _, err := services.DecodeSync([]byte{1}); err == nil {
		t.Error("short sync body decoded")
	}
	if _, err := services.DecodeSyncResponse([]byte{1, 2}); err == nil {
		t.Error("short sync response decoded")
	}
	if _, err := services.DecodeUpdateResponse([]byte{1, 2}); err == nil {
		t.Error("short update response decoded")
	}
}
