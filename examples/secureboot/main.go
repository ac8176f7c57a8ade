// Secure boot: the root of the paper's protection chain (§6.2).
//
// The ROM bootloader measures the flash application image against a
// reference digest, refuses to boot tampered firmware, and — on a clean
// boot — programs the EA-MPU rules protecting K_Attest, counter_R and the
// clock, then sets the lockdown bit. The example shows all three acts:
// a clean boot, a boot refusal after a flash implant, and a runtime
// attempt to reconfigure the locked MPU.
//
//	go run ./examples/secureboot
package main

import (
	"crypto/sha1"
	"fmt"
	"log"

	"proverattest/internal/adversary"
	"proverattest/internal/anchor"
	"proverattest/internal/core"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
	"proverattest/internal/sim"
)

func main() {
	log.SetFlags(0)

	// Act 1: a clean device boots, programs and locks the MPU.
	k := sim.NewKernel()
	dev, err := core.NewDevice(k, core.DeviceConfig{
		Anchor: anchor.Config{
			Freshness:  protocol.FreshCounter,
			AuthKind:   protocol.AuthHMACSHA1,
			Protection: anchor.FullProtection(),
		},
	})
	if err != nil {
		log.Fatalf("secureboot: %v", err)
	}
	fmt.Printf("act 1: clean boot OK — measured %d KB in %.2f ms, %d EA-MPU rules installed, MPU locked=%v\n",
		dev.Boot.MeasuredBytes/1024, dev.Boot.Cycles.Millis(), dev.Boot.RulesSet, dev.M.MPU.Locked())

	// Act 2: runtime malware tries to reopen the protections.
	roam := adversary.Infect(dev.M, k)
	outcome := roam.DisableMPURule(0)
	fmt.Printf("act 2: malware tries to disable the K_Attest rule: %s\n", outcome)
	steal := roam.ExtractKey(dev.A.KeyAddr())
	fmt.Printf("       malware tries to read K_Attest:            %s\n", steal)
	if outcome.Succeeded || steal.Succeeded {
		log.Fatal("secureboot: lockdown failed!")
	}

	// Act 3: an implant in flash is caught at the next boot.
	k2 := sim.NewKernel()
	m2 := mcu.New(k2, mcu.Config{MPURules: 8})
	a2, err := anchor.Install(m2, anchor.Config{
		Freshness:  protocol.FreshCounter,
		AuthKind:   protocol.AuthHMACSHA1,
		AttestKey:  core.DefaultAttestKey,
		Protection: anchor.FullProtection(),
	})
	if err != nil {
		log.Fatalf("secureboot: %v", err)
	}
	app := make([]byte, core.AppImageSize)
	for i := range app {
		app[i] = byte(i*13 + 7)
	}
	m2.Space.DirectWrite(core.AppImageRegion.Start, app)
	ref := sha1.Sum(app) // factory reference digest of the clean image

	// The implant lands after the reference was recorded.
	m2.Space.DirectWrite(core.AppImageRegion.Start+0x2000, []byte("MALWARE"))

	var report mcu.BootReport
	m2.SecureBoot(a2.BootPolicy(ref, core.AppImageRegion), func(r mcu.BootReport) { report = r })
	k2.RunUntil(k2.Now() + sim.Second)
	fmt.Printf("act 3: boot of implanted image: OK=%v (%s)\n", report.OK, report.Reason)
	if halted, reason := m2.Halted(); halted {
		fmt.Printf("       MCU halted: %s\n", reason)
	} else {
		log.Fatal("secureboot: tampered image booted!")
	}
}
