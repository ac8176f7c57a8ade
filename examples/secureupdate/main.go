// Secure update: attestation as a building block (paper §1, citing SCUBA),
// behind the prover-protecting gate of future-work item 3.
//
// The verifier pushes a firmware fragment to the prover through the same
// authenticated, freshness-checked channel as attestation requests, orders
// the erasure of a RAM region holding session secrets (receiving a proof
// of erasure), and finally corrects a clock drift with the bounded
// clock-sync service. A forged update from an impersonator is rejected at
// the tag check without touching flash.
//
//	go run ./examples/secureupdate
package main

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"log"

	"proverattest/internal/anchor"
	"proverattest/internal/core"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
	"proverattest/internal/services"
	"proverattest/internal/sim"
)

func main() {
	log.SetFlags(0)
	prot := anchor.FullProtection()
	prot.SyncOffset = true
	s, err := core.NewScenario(core.ScenarioConfig{
		Freshness:      protocol.FreshCounter,
		Auth:           protocol.AuthHMACSHA1,
		Clock:          anchor.ClockWide64,
		Protection:     prot,
		EnableServices: true,
		MaxSyncStepMs:  200,
	})
	if err != nil {
		log.Fatalf("secureupdate: %v", err)
	}

	run := func(kind protocol.CommandKind, body []byte) *protocol.CommandResp {
		var got *protocol.CommandResp
		s.IssueCommandAt(s.K.Now()+sim.Millisecond, kind, body, func(r *protocol.CommandResp) { got = r })
		s.RunUntil(s.K.Now() + 10*sim.Second)
		if got == nil {
			log.Fatalf("secureupdate: no response to %v", kind)
		}
		return got
	}

	// 1. Push a firmware patch.
	patch := bytes.Repeat([]byte{0xBE, 0xEF}, 512) // 1 KB fragment
	resp := run(protocol.CmdSecureUpdate, services.EncodeUpdate(services.UpdateRequest{
		Offset: 0x4000,
		Image:  patch,
		Digest: sha1.Sum(patch),
	}))
	ur, err := services.DecodeUpdateResponse(resp.Body)
	if err != nil {
		log.Fatalf("secureupdate: %v", err)
	}
	fmt.Printf("update:   status=%d, anchor reports app-region digest %x...\n", resp.Status, ur.RegionDigest[:6])

	// 2. Order erasure of 4 KB of RAM that held session keys.
	resp = run(protocol.CmdSecureErase, services.EncodeErase(services.EraseRequest{
		Addr: mcu.RAMRegion.Start + 0x10000,
		Size: 4096,
	}))
	proof := services.ErasureProof(4096)
	fmt.Printf("erase:    status=%d, proof-of-erasure valid=%v\n",
		resp.Status, bytes.Equal(resp.Body, proof[:]))

	// 3. Correct clock drift (bounded to ±200 ms per round).
	verifierNow := uint64(s.K.Now()/sim.Millisecond) + 150
	resp = run(protocol.CmdClockSync, services.EncodeSync(services.SyncRequest{VerifierTimeMs: verifierNow}))
	sr, err := services.DecodeSyncResponse(resp.Body)
	if err != nil {
		log.Fatalf("secureupdate: %v", err)
	}
	fmt.Printf("sync:     status=%d, applied %+d ms (raw delta %+d ms)\n",
		resp.Status, sr.AppliedDeltaMs, sr.ClampedDeltaMs)

	// 4. An impersonator tries to push malware through the same door.
	forged := &protocol.CommandReq{
		Kind:      protocol.CmdSecureUpdate,
		Freshness: protocol.FreshCounter,
		Auth:      protocol.AuthHMACSHA1,
		Counter:   9999,
		Body: services.EncodeUpdate(services.UpdateRequest{
			Offset: 0,
			Image:  []byte("MALWARE"),
			Digest: sha1.Sum([]byte("MALWARE")),
		}),
		Tag: bytes.Repeat([]byte{0x66}, 20),
	}
	executedBefore := s.Dev.A.Stats.CommandsExecuted
	s.K.At(s.K.Now()+sim.Millisecond, func() {
		s.C.Send("verifier", "prover", forged.Encode())
	})
	s.RunUntil(s.K.Now() + 5*sim.Second)
	fmt.Printf("forgery:  executed=%v (auth rejections: %d) — the gate held\n",
		s.Dev.A.Stats.CommandsExecuted != executedBefore, s.Dev.A.Stats.AuthRejected)

	if s.Dev.A.Stats.CommandsExecuted != 3 || s.Dev.A.Stats.AuthRejected != 1 {
		log.Fatal("secureupdate: unexpected prover stats")
	}
	fmt.Println("\nall three services ran behind the attestation gate; the forgery died at the MAC check")
}
