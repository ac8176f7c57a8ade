package mcu

import (
	"encoding/binary"
	"fmt"

	"proverattest/internal/sim"
)

// Device is a memory-mapped peripheral. Registers are 32-bit and accessed
// at 4-byte-aligned offsets within the device's window.
type Device interface {
	// DeviceName identifies the peripheral in fault messages.
	DeviceName() string
	// Load reads the register at the given window offset.
	Load(off uint32) (uint32, error)
	// Store writes the register at the given window offset. A Store may be
	// refused by the device itself (e.g. a locked MPU), independent of any
	// EA-MPU rule.
	Store(off uint32, v uint32) error
}

type mapping struct {
	window Region
	dev    Device
}

// AddressSpace is the raw storage behind the bus: ROM, flash, RAM, SRAM and
// the MMIO device windows. Its direct accessors bypass protection and
// represent hardware-internal or factory (out-of-band) access; all firmware
// goes through Bus instead.
type AddressSpace struct {
	rom   []byte
	flash []byte
	ram   []byte
	sram  []byte
	devs  []mapping

	// wm, when attached, snoops every store that lands in plain memory.
	// The hook sits here — not in Bus — because the monitor models a bus-
	// level hardware latch: firmware stores, DMA and factory DirectWrites
	// all pass through DirectWrite, so none of them can touch attested
	// memory unobserved.
	wm *WriteMonitor
}

// NewAddressSpace allocates zeroed memory for the standard memory map.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{
		rom:   make([]byte, ROMRegion.Size),
		flash: make([]byte, FlashRegion.Size),
		ram:   make([]byte, RAMRegion.Size),
		sram:  make([]byte, SRAMRegion.Size),
	}
}

// MapDevice attaches a peripheral to an MMIO window. Overlapping windows
// are a configuration bug and panic immediately.
func (s *AddressSpace) MapDevice(window Region, dev Device) {
	if !MMIORegion.ContainsRange(window.Start, window.Size) {
		panic(fmt.Sprintf("mcu: device window %v outside MMIO region %v", window, MMIORegion))
	}
	for _, m := range s.devs {
		if m.window.Overlaps(window) {
			panic(fmt.Sprintf("mcu: device window %v overlaps %s at %v", window, m.dev.DeviceName(), m.window))
		}
	}
	s.devs = append(s.devs, mapping{window: window, dev: dev})
}

// deviceAt finds the peripheral mapped over addr, if any.
func (s *AddressSpace) deviceAt(addr Addr) (Device, uint32, bool) {
	for _, m := range s.devs {
		if m.window.Contains(addr) {
			return m.dev, uint32(addr - m.window.Start), true
		}
	}
	return nil, 0, false
}

// backing returns the storage slice and offset for a plain-memory address.
func (s *AddressSpace) backing(addr Addr) ([]byte, uint32, bool) {
	switch {
	case ROMRegion.Contains(addr):
		return s.rom, uint32(addr - ROMRegion.Start), true
	case FlashRegion.Contains(addr):
		return s.flash, uint32(addr - FlashRegion.Start), true
	case RAMRegion.Contains(addr):
		return s.ram, uint32(addr - RAMRegion.Start), true
	case SRAMRegion.Contains(addr):
		return s.sram, uint32(addr - SRAMRegion.Start), true
	}
	return nil, 0, false
}

// regionOf returns the memory-map region containing addr.
func regionOf(addr Addr) (Region, bool) {
	for _, r := range []Region{ROMRegion, FlashRegion, RAMRegion, SRAMRegion, MMIORegion} {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Region{}, false
}

// DirectRead copies n bytes at addr without protection checks (hardware/
// factory access). It panics on unmapped or MMIO addresses: hardware blocks
// never DMA from device windows in this model.
func (s *AddressSpace) DirectRead(addr Addr, n uint32) []byte {
	return append(make([]byte, 0, n), s.view(addr, n)...)
}

// view returns the n bytes at addr in place, panicking as DirectRead does.
func (s *AddressSpace) view(addr Addr, n uint32) []byte {
	mem, off, ok := s.backing(addr)
	if !ok || uint64(off)+uint64(n) > uint64(len(mem)) {
		panic(fmt.Sprintf("mcu: direct read of %d bytes at %#08x outside plain memory", n, uint32(addr)))
	}
	return mem[off : off+n : off+n]
}

// DirectWrite stores data at addr without protection checks.
func (s *AddressSpace) DirectWrite(addr Addr, data []byte) {
	mem, off, ok := s.backing(addr)
	if !ok || uint64(off)+uint64(len(data)) > uint64(len(mem)) {
		panic(fmt.Sprintf("mcu: direct write of %d bytes at %#08x outside plain memory", len(data), uint32(addr)))
	}
	if s.wm != nil {
		s.wm.observe(addr, uint32(len(data)))
	}
	copy(mem[off:], data)
}

// DirectLoad32 reads a little-endian word without protection checks.
func (s *AddressSpace) DirectLoad32(addr Addr) uint32 {
	return binary.LittleEndian.Uint32(s.view(addr, 4))
}

// DirectStore32 writes a little-endian word without protection checks.
func (s *AddressSpace) DirectStore32(addr Addr, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	s.DirectWrite(addr, b[:])
}

// Bus mediates every firmware access: it enforces the ROM's inherent write
// protection, consults the EA-MPU with the issuing code's PC, and routes
// MMIO to devices. This is the simulated equivalent of the TrustLite
// memory bus with execution-aware access control (§6.1).
type Bus struct {
	space  *AddressSpace
	mpu    *EAMPU
	tracer *Tracer
	now    func() sim.Time

	// FlashBytesWritten counts bytes programmed into flash through the
	// bus. Flash endures a bounded number of program/erase cycles
	// (~10^4–10^5 on MSP430-class parts), so the §4.2 counter — one flash
	// write per accepted request — is itself a consumable resource; the
	// wear ablation reads this counter.
	FlashBytesWritten uint64
}

// NewBus wires an address space and MPU together.
func NewBus(space *AddressSpace, mpu *EAMPU) *Bus {
	return &Bus{space: space, mpu: mpu}
}

// check runs the protection pipeline for an n-byte access and feeds the
// attached tracer.
func (b *Bus) check(pc, addr Addr, n uint32, kind AccessKind) *Fault {
	f := b.checkPipeline(pc, addr, n, kind)
	if b.tracer != nil {
		e := TraceEntry{PC: pc, Addr: addr, Size: n, Kind: kind, Denied: f != nil}
		if b.now != nil {
			e.When = b.now()
		}
		if f != nil {
			e.Reason = f.Reason
		}
		b.tracer.record(e)
	}
	return f
}

func (b *Bus) checkPipeline(pc, addr Addr, n uint32, kind AccessKind) *Fault {
	region, mapped := regionOf(addr)
	if !mapped || !region.ContainsRange(addr, n) {
		return &Fault{PC: pc, Addr: addr, Kind: kind, Reason: "unmapped address"}
	}
	if kind == AccessWrite && ROMRegion.Contains(addr) {
		return &Fault{PC: pc, Addr: addr, Kind: kind, Reason: "ROM is write-protected in hardware"}
	}
	if f := b.mpu.Check(pc, addr, n, kind); f != nil {
		return f
	}
	return nil
}

// Read copies n bytes at addr on behalf of code executing at pc.
func (b *Bus) Read(pc, addr Addr, n uint32) ([]byte, *Fault) {
	data, f := b.View(pc, addr, n)
	if f != nil {
		return nil, f
	}
	return append(make([]byte, 0, n), data...), nil
}

// View is Read without the copy: the same checks and faults, but the
// returned slice aliases memory. It is valid until the next write to the
// range, and the caller must not modify it. The trust anchor hashes the
// measured region through View instead of copying 512 KiB per request.
func (b *Bus) View(pc, addr Addr, n uint32) ([]byte, *Fault) {
	if MMIORegion.Contains(addr) {
		return nil, &Fault{PC: pc, Addr: addr, Kind: AccessRead, Reason: "byte access to MMIO (use Load32)"}
	}
	if f := b.check(pc, addr, n, AccessRead); f != nil {
		return nil, f
	}
	return b.space.view(addr, n), nil
}

// Write stores data at addr on behalf of code executing at pc.
func (b *Bus) Write(pc, addr Addr, data []byte) *Fault {
	if MMIORegion.Contains(addr) {
		return &Fault{PC: pc, Addr: addr, Kind: AccessWrite, Reason: "byte access to MMIO (use Store32)"}
	}
	if f := b.check(pc, addr, uint32(len(data)), AccessWrite); f != nil {
		return f
	}
	if FlashRegion.Contains(addr) {
		b.FlashBytesWritten += uint64(len(data))
	}
	b.space.DirectWrite(addr, data)
	return nil
}

// Load32 reads a 32-bit word. For MMIO addresses the access must be
// 4-byte aligned and is routed to the device.
func (b *Bus) Load32(pc, addr Addr) (uint32, *Fault) {
	if MMIORegion.Contains(addr) {
		if addr%4 != 0 {
			return 0, &Fault{PC: pc, Addr: addr, Kind: AccessRead, Reason: "unaligned MMIO access"}
		}
		if f := b.check(pc, addr, 4, AccessRead); f != nil {
			return 0, f
		}
		dev, off, ok := b.space.deviceAt(addr)
		if !ok {
			return 0, &Fault{PC: pc, Addr: addr, Kind: AccessRead, Reason: "no device mapped"}
		}
		v, err := dev.Load(off)
		if err != nil {
			return 0, &Fault{PC: pc, Addr: addr, Kind: AccessRead, Reason: err.Error()}
		}
		return v, nil
	}
	data, f := b.View(pc, addr, 4)
	if f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint32(data), nil
}

// Store32 writes a 32-bit word, routing MMIO addresses to the device.
func (b *Bus) Store32(pc, addr Addr, v uint32) *Fault {
	if MMIORegion.Contains(addr) {
		if addr%4 != 0 {
			return &Fault{PC: pc, Addr: addr, Kind: AccessWrite, Reason: "unaligned MMIO access"}
		}
		if f := b.check(pc, addr, 4, AccessWrite); f != nil {
			return f
		}
		dev, off, ok := b.space.deviceAt(addr)
		if !ok {
			return &Fault{PC: pc, Addr: addr, Kind: AccessWrite, Reason: "no device mapped"}
		}
		if err := dev.Store(off, v); err != nil {
			return &Fault{PC: pc, Addr: addr, Kind: AccessWrite, Reason: err.Error()}
		}
		return nil
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return b.Write(pc, addr, buf[:])
}
