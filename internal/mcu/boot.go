package mcu

import (
	"crypto/sha1"

	"proverattest/internal/crypto/cost"
)

// BootROMTask is the code region of the immutable first-stage bootloader.
// It occupies the bottom of ROM; the trust-anchor code regions follow it.
var BootROMTask = Region{Start: ROMRegion.Start, Size: 4 * KiB}

// BootPolicy is the protection configuration baked into ROM: the reference
// measurement of the application image, the EA-MPU rules to program, and
// the interrupt lines to enable before handing control to the application.
// This is the paper's secure-boot step (§6.2): "This initial software sets
// up memory protection rules in the EA-MPU and locks it down to preclude
// further changes."
type BootPolicy struct {
	// RefDigest is the expected SHA-1 of the measured boot region, stored
	// in ROM at manufacture time.
	RefDigest [sha1.Size]byte
	// MeasuredRegion is the image verified at boot (normally the
	// application's flash region).
	MeasuredRegion Region
	// Rules are programmed into the EA-MPU, lowest index first.
	Rules []Rule
	// LockMPU sets the lockdown bit after programming.
	LockMPU bool
	// IDTBase, if non-zero, is written to the interrupt controller, and
	// LockIDT freezes it afterwards.
	IDTBase Addr
	LockIDT bool
	// EnableIRQ lists interrupt lines to unmask.
	EnableIRQ []int
}

// BootReport records what secure boot did, for tests and scenario logs.
type BootReport struct {
	OK            bool
	Reason        string
	MeasuredBytes uint32
	Cycles        cost.Cycles
	RulesSet      int
}

// SecureBoot runs the ROM bootloader as a job on the MCU: it measures the
// configured region, refuses to boot on a digest mismatch (halting the
// core), and otherwise programs and locks the EA-MPU and interrupt
// configuration. onDone receives the report at the boot job's completion
// time.
func (m *MCU) SecureBoot(policy BootPolicy, onDone func(BootReport)) {
	task, ok := m.TaskByName("boot-rom")
	if !ok {
		task = m.RegisterTask(&Task{Name: "boot-rom", Code: BootROMTask, Uninterruptible: true})
	}
	var report BootReport
	m.Submit(task, func(e *Exec) {
		report = m.runBoot(e, policy)
	}, func(*Exec) {
		if onDone != nil {
			onDone(report)
		}
	})
}

func (m *MCU) runBoot(e *Exec, policy BootPolicy) BootReport {
	report := BootReport{MeasuredBytes: policy.MeasuredRegion.Size}

	// Measure the application image through the bus (boot runs before any
	// MPU rules exist, so the reads are unrestricted).
	img, fault := e.Read(policy.MeasuredRegion.Start, policy.MeasuredRegion.Size)
	if fault != nil {
		report.Reason = "boot: cannot read measured region: " + fault.Error()
		m.Halt(report.Reason)
		return report
	}
	e.Tick(cost.SHA1Hash(len(img)))
	digest := sha1.Sum(img)
	if digest != policy.RefDigest {
		report.Reason = "boot: measured image digest does not match reference"
		m.Halt(report.Reason)
		return report
	}

	// Program the protection rules over the bus, exactly as the ROM
	// firmware would.
	for i, r := range policy.Rules {
		fields := []struct {
			off uint32
			v   uint32
		}{
			{mpuRuleCodeStart, uint32(r.Code.Start)},
			{mpuRuleCodeEnd, uint32(r.Code.End())},
			{mpuRuleDataStart, uint32(r.Data.Start)},
			{mpuRuleDataEnd, uint32(r.Data.End())},
			{mpuRulePerm, uint32(r.Perm)},
			{mpuRuleEnable, boolWord(r.Enabled)},
		}
		for _, f := range fields {
			if fault := e.Store32(MPURuleAddr(i, f.off), f.v); fault != nil {
				report.Reason = "boot: MPU programming failed: " + fault.Error()
				m.Halt(report.Reason)
				return report
			}
		}
		report.RulesSet++
	}
	if policy.LockMPU {
		if fault := e.Store32(MPULockAddr(), 1); fault != nil {
			report.Reason = "boot: MPU lockdown failed: " + fault.Error()
			m.Halt(report.Reason)
			return report
		}
	}

	if policy.IDTBase != 0 {
		if fault := e.Store32(IRQIDTBaseAddr, uint32(policy.IDTBase)); fault != nil {
			report.Reason = "boot: IDT base programming failed: " + fault.Error()
			m.Halt(report.Reason)
			return report
		}
		if policy.LockIDT {
			if fault := e.Store32(IRQIDTLockAddr, 1); fault != nil {
				report.Reason = "boot: IDT lock failed: " + fault.Error()
				m.Halt(report.Reason)
				return report
			}
		}
	}
	var imr uint32
	if len(policy.EnableIRQ) > 0 {
		for _, line := range policy.EnableIRQ {
			imr |= 1 << uint(line)
		}
		if fault := e.Store32(IRQIMRAddr, imr); fault != nil {
			report.Reason = "boot: IRQ unmask failed: " + fault.Error()
			m.Halt(report.Reason)
			return report
		}
	}

	// A handful of cycles for the register programming itself.
	e.Tick(cost.Cycles(16 * (len(policy.Rules) + 4)))
	report.OK = true
	report.Cycles = e.Cycles()
	return report
}
