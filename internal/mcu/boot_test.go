package mcu

import (
	"bytes"
	"crypto/sha1"
	"testing"

	"proverattest/internal/crypto/cost"
	"proverattest/internal/sim"
)

// provisionApp writes a firmware image into flash and returns its digest,
// standing in for the factory programming step.
func provisionApp(m *MCU, size uint32) [sha1.Size]byte {
	img := make([]byte, size)
	for i := range img {
		img[i] = byte(i*7 + 3)
	}
	m.Space.DirectWrite(FlashRegion.Start, img)
	return sha1.Sum(img)
}

func TestSecureBootAcceptsGenuineImage(t *testing.T) {
	m := newTestMCU(t)
	digest := provisionApp(m, 64*KiB)
	anchor := Region{Start: ROMRegion.Start + 0x1000, Size: 0x1000}
	key := Region{Start: FlashRegion.Start + 0x7F000, Size: 32}
	var report BootReport
	m.SecureBoot(BootPolicy{
		RefDigest:      digest,
		MeasuredRegion: Region{Start: FlashRegion.Start, Size: 64 * KiB},
		Rules: []Rule{
			{Code: anchor, Data: key, Perm: PermRead, Enabled: true},
		},
		LockMPU:   true,
		IDTBase:   SRAMRegion.Start,
		LockIDT:   true,
		EnableIRQ: []int{5},
	}, func(r BootReport) { report = r })
	m.K.Run()

	if !report.OK {
		t.Fatalf("secure boot refused a genuine image: %s", report.Reason)
	}
	if halted, _ := m.Halted(); halted {
		t.Fatal("MCU halted after successful boot")
	}
	if !m.MPU.Locked() {
		t.Fatal("MPU not locked after boot")
	}
	if report.RulesSet != 1 {
		t.Fatalf("RulesSet = %d, want 1", report.RulesSet)
	}
	if m.IRQ.IDTBase() != SRAMRegion.Start {
		t.Fatal("IDT base not programmed")
	}
	if !m.IRQ.Enabled(5) {
		t.Fatal("IRQ line 5 not enabled")
	}
	// The key rule is live: application reads fault.
	if _, f := m.Bus.Read(FlashRegion.Start, key.Start, 4); f == nil {
		t.Fatal("key unprotected after boot")
	}
}

func TestSecureBootRefusesTamperedImage(t *testing.T) {
	m := newTestMCU(t)
	digest := provisionApp(m, 64*KiB)
	// Tamper one byte after the reference digest was recorded: a malware
	// implant in flash.
	m.Space.DirectWrite(FlashRegion.Start+0x1234, []byte{0xEE})
	var report BootReport
	m.SecureBoot(BootPolicy{
		RefDigest:      digest,
		MeasuredRegion: Region{Start: FlashRegion.Start, Size: 64 * KiB},
	}, func(r BootReport) { report = r })
	m.K.Run()

	if report.OK {
		t.Fatal("secure boot accepted a tampered image")
	}
	if halted, reason := m.Halted(); !halted {
		t.Fatal("MCU not halted after boot refusal")
	} else if reason == "" {
		t.Fatal("halt without reason")
	}
}

func TestSecureBootMeasurementCost(t *testing.T) {
	// Boot-time measurement of a 64 KB image costs the modeled SHA-1 time,
	// so boot completes ≈5.9 ms of simulated time later (1025 blocks ×
	// 0.092 ms plus register programming).
	m := newTestMCU(t)
	digest := provisionApp(m, 64*KiB)
	var doneAt sim.Time
	m.SecureBoot(BootPolicy{
		RefDigest:      digest,
		MeasuredRegion: Region{Start: FlashRegion.Start, Size: 64 * KiB},
	}, func(BootReport) { doneAt = m.K.Now() })
	m.K.Run()
	wantMs := cost.SHA1Hash(64 * KiB).Millis()
	if doneAt.Milliseconds() < wantMs || doneAt.Milliseconds() > wantMs+0.1 {
		t.Fatalf("boot finished at %.3f ms, want ≈%.3f ms", doneAt.Milliseconds(), wantMs)
	}
}

func TestSecureBootLockdownSurvivesReconfigurationAttempts(t *testing.T) {
	m := newTestMCU(t)
	digest := provisionApp(m, 4*KiB)
	key := Region{Start: FlashRegion.Start + 0x7F000, Size: 32}
	anchor := Region{Start: ROMRegion.Start + 0x1000, Size: 0x1000}
	m.SecureBoot(BootPolicy{
		RefDigest:      digest,
		MeasuredRegion: Region{Start: FlashRegion.Start, Size: 4 * KiB},
		Rules:          []Rule{{Code: anchor, Data: key, Perm: PermRead, Enabled: true}},
		LockMPU:        true,
	}, nil)
	m.K.Run()

	// Runtime adversary (controls all application software) tries to
	// disable the key rule and to unlock the MPU: both must fail.
	malware := m.RegisterTask(&Task{Name: "malware", Code: Region{Start: FlashRegion.Start + 0x8000, Size: 0x1000}})
	var disableFault, unlockFault *Fault
	m.Submit(malware, func(e *Exec) {
		disableFault = e.Store32(MPURuleAddr(0, mpuRuleEnable), 0)
		unlockFault = e.Store32(MPULockAddr(), 0)
	}, nil)
	m.K.Run()
	if disableFault == nil {
		t.Fatal("malware disabled an MPU rule after lockdown")
	}
	if unlockFault == nil {
		t.Fatal("malware unlocked the MPU")
	}
	if _, f := m.Bus.Read(FlashRegion.Start+0x8000, key.Start, 4); f == nil {
		t.Fatal("key readable after attempted reconfiguration")
	}
}

func TestSecureBootTwiceReusesROMTask(t *testing.T) {
	m := newTestMCU(t)
	digest := provisionApp(m, 4*KiB)
	policy := BootPolicy{
		RefDigest:      digest,
		MeasuredRegion: Region{Start: FlashRegion.Start, Size: 4 * KiB},
	}
	ok := 0
	m.SecureBoot(policy, func(r BootReport) {
		if r.OK {
			ok++
		}
	})
	m.K.Run()
	// Warm reboot: reset the MPU and boot again.
	m.MPU.Reset()
	m.SecureBoot(policy, func(r BootReport) {
		if r.OK {
			ok++
		}
	})
	m.K.Run()
	if ok != 2 {
		t.Fatalf("successful boots = %d, want 2", ok)
	}
}

func TestBootReportDigestMatchesImage(t *testing.T) {
	m := newTestMCU(t)
	img := bytes.Repeat([]byte{0xA5}, 8*KiB)
	m.Space.DirectWrite(FlashRegion.Start, img)
	var report BootReport
	m.SecureBoot(BootPolicy{
		RefDigest:      sha1.Sum(img),
		MeasuredRegion: Region{Start: FlashRegion.Start, Size: 8 * KiB},
	}, func(r BootReport) { report = r })
	m.K.Run()
	if !report.OK {
		t.Fatalf("boot failed: %s", report.Reason)
	}
	if report.MeasuredBytes != 8*KiB {
		t.Fatalf("MeasuredBytes = %d, want %d", report.MeasuredBytes, 8*KiB)
	}
}
