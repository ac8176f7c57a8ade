package mcu

import (
	"bytes"
	"testing"

	"proverattest/internal/sim"
)

func newTestMCU(t *testing.T) *MCU {
	t.Helper()
	return New(sim.NewKernel(), Config{MPURules: 8})
}

func TestRegionArithmetic(t *testing.T) {
	r := Region{Start: 0x100, Size: 0x10}
	if r.End() != 0x110 {
		t.Errorf("End() = %#x, want 0x110", r.End())
	}
	if !r.Contains(0x100) || !r.Contains(0x10f) {
		t.Error("Contains misses interior addresses")
	}
	if r.Contains(0x110) || r.Contains(0xff) {
		t.Error("Contains includes exterior addresses")
	}
	if !r.ContainsRange(0x100, 16) {
		t.Error("ContainsRange rejects the exact region")
	}
	if r.ContainsRange(0x108, 9) {
		t.Error("ContainsRange accepts a range spilling past End")
	}
	if !r.Overlaps(Region{Start: 0x10f, Size: 4}) {
		t.Error("Overlaps misses a one-byte overlap")
	}
	if r.Overlaps(Region{Start: 0x110, Size: 4}) {
		t.Error("Overlaps claims adjacency is overlap")
	}
}

func TestMemoryMapIsDisjoint(t *testing.T) {
	regions := []Region{ROMRegion, FlashRegion, RAMRegion, SRAMRegion, MMIORegion}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if regions[i].Overlaps(regions[j]) {
				t.Errorf("memory map regions %v and %v overlap", regions[i], regions[j])
			}
		}
	}
}

func TestDirectReadWrite(t *testing.T) {
	s := NewAddressSpace()
	data := []byte{1, 2, 3, 4, 5}
	s.DirectWrite(RAMRegion.Start+100, data)
	if got := s.DirectRead(RAMRegion.Start+100, 5); !bytes.Equal(got, data) {
		t.Fatalf("DirectRead = %v, want %v", got, data)
	}
	s.DirectStore32(FlashRegion.Start, 0xdeadbeef)
	if got := s.DirectLoad32(FlashRegion.Start); got != 0xdeadbeef {
		t.Fatalf("DirectLoad32 = %#x, want 0xdeadbeef", got)
	}
}

func TestDirectAccessPanicsOutsideMemory(t *testing.T) {
	s := NewAddressSpace()
	for _, fn := range []func(){
		func() { s.DirectRead(MMIORegion.Start, 4) },
		func() { s.DirectWrite(0x0009_0000, []byte{1}) }, // hole between ROM and flash
		func() { s.DirectRead(RAMRegion.End()-2, 4) },    // spills past RAM
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("direct access outside plain memory did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestBusROMWriteProtection(t *testing.T) {
	m := newTestMCU(t)
	pc := FlashRegion.Start
	if f := m.Bus.Write(pc, ROMRegion.Start+10, []byte{0xff}); f == nil {
		t.Fatal("write to ROM succeeded")
	} else if f.Reason != "ROM is write-protected in hardware" {
		t.Fatalf("unexpected fault reason %q", f.Reason)
	}
	// Reads from ROM are open by default.
	if _, f := m.Bus.Read(pc, ROMRegion.Start+10, 4); f != nil {
		t.Fatalf("ROM read faulted: %v", f)
	}
}

func TestBusUnmappedAddress(t *testing.T) {
	m := newTestMCU(t)
	if _, f := m.Bus.Read(FlashRegion.Start, 0x0500_0000, 4); f == nil {
		t.Fatal("read of unmapped address succeeded")
	}
	if f := m.Bus.Write(FlashRegion.Start, 0x0500_0000, []byte{1}); f == nil {
		t.Fatal("write to unmapped address succeeded")
	}
}

func TestBusRangeSpillFaults(t *testing.T) {
	m := newTestMCU(t)
	// A read straddling the end of RAM must fault, not wrap or truncate.
	if _, f := m.Bus.Read(FlashRegion.Start, RAMRegion.End()-2, 8); f == nil {
		t.Fatal("read spilling past RAM succeeded")
	}
}

func TestBusByteAccessToMMIOFaults(t *testing.T) {
	m := newTestMCU(t)
	if _, f := m.Bus.Read(FlashRegion.Start, MPUWindow.Start, 1); f == nil {
		t.Fatal("byte read of MMIO succeeded")
	}
	if f := m.Bus.Write(FlashRegion.Start, MPUWindow.Start, []byte{1}); f == nil {
		t.Fatal("byte write of MMIO succeeded")
	}
}

func TestBusUnalignedMMIOFaults(t *testing.T) {
	m := newTestMCU(t)
	if _, f := m.Bus.Load32(FlashRegion.Start, MPUWindow.Start+2); f == nil {
		t.Fatal("unaligned MMIO load succeeded")
	}
	if f := m.Bus.Store32(FlashRegion.Start, MPUWindow.Start+2, 0); f == nil {
		t.Fatal("unaligned MMIO store succeeded")
	}
}

func TestBusMMIOWithNoDevice(t *testing.T) {
	m := newTestMCU(t)
	empty := MMIORegion.Start + 0x8000
	if _, f := m.Bus.Load32(FlashRegion.Start, empty); f == nil {
		t.Fatal("load from unmapped MMIO succeeded")
	}
}

func TestBusMemoryWordAccess(t *testing.T) {
	m := newTestMCU(t)
	pc := FlashRegion.Start
	addr := RAMRegion.Start + 0x40
	if f := m.Bus.Store32(pc, addr, 0x12345678); f != nil {
		t.Fatal(f)
	}
	v, f := m.Bus.Load32(pc, addr)
	if f != nil {
		t.Fatal(f)
	}
	if v != 0x12345678 {
		t.Fatalf("Load32 = %#x, want 0x12345678", v)
	}
}

func TestMapDeviceValidation(t *testing.T) {
	s := NewAddressSpace()
	dev := &stubDevice{}
	s.MapDevice(Region{Start: MMIORegion.Start + 0x4000, Size: 0x100}, dev)

	func() {
		defer func() {
			if recover() == nil {
				t.Error("overlapping device window did not panic")
			}
		}()
		s.MapDevice(Region{Start: MMIORegion.Start + 0x4080, Size: 0x100}, dev)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("device window outside MMIO did not panic")
			}
		}()
		s.MapDevice(Region{Start: RAMRegion.Start, Size: 0x100}, dev)
	}()
}

type stubDevice struct {
	lastStore uint32
}

func (d *stubDevice) DeviceName() string              { return "stub" }
func (d *stubDevice) Load(off uint32) (uint32, error) { return off, nil }
func (d *stubDevice) Store(off uint32, v uint32) error {
	d.lastStore = v
	return nil
}

func TestDeviceDispatch(t *testing.T) {
	m := newTestMCU(t)
	dev := &stubDevice{}
	window := Region{Start: MMIORegion.Start + 0x4000, Size: 0x100}
	m.Space.MapDevice(window, dev)

	v, f := m.Bus.Load32(FlashRegion.Start, window.Start+8)
	if f != nil {
		t.Fatal(f)
	}
	if v != 8 {
		t.Fatalf("device Load returned %d, want window offset 8", v)
	}
	if f := m.Bus.Store32(FlashRegion.Start, window.Start+4, 99); f != nil {
		t.Fatal(f)
	}
	if dev.lastStore != 99 {
		t.Fatalf("device saw store %d, want 99", dev.lastStore)
	}
}

// TestBusLoad32ZeroAllocs pins the interpreter's word load on plain
// memory: checked like Read, but read in place, so an SP16 load costs
// no garbage.
func TestBusLoad32ZeroAllocs(t *testing.T) {
	m := newTestMCU(t)
	pc := FlashRegion.Start
	m.Space.DirectStore32(RAMRegion.Start+8, 0xC0FFEE11)
	load := func() {
		if v, f := m.Bus.Load32(pc, RAMRegion.Start+8); f != nil || v != 0xC0FFEE11 {
			t.Fatalf("Load32 = %#x, %v", v, f)
		}
	}
	load()
	if n := testing.AllocsPerRun(1000, load); n != 0 {
		t.Fatalf("Bus.Load32 on plain memory: %v allocs/op, want 0", n)
	}
}

// TestBusViewMatchesRead checks that the in-place view sees what Read
// copies and faults where Read faults.
func TestBusViewMatchesRead(t *testing.T) {
	m := newTestMCU(t)
	pc := FlashRegion.Start
	m.Space.DirectWrite(RAMRegion.Start, []byte("in-place"))
	view, f := m.Bus.View(pc, RAMRegion.Start, 8)
	if f != nil {
		t.Fatal(f)
	}
	data, _ := m.Bus.Read(pc, RAMRegion.Start, 8)
	if !bytes.Equal(view, data) || string(view) != "in-place" {
		t.Fatalf("View = %q, Read = %q", view, data)
	}
	if _, f := m.Bus.View(pc, RAMRegion.End()-2, 8); f == nil {
		t.Fatal("view spilling past RAM succeeded")
	}
	if _, f := m.Bus.View(pc, MMIORegion.Start, 4); f == nil {
		t.Fatal("byte view of MMIO succeeded")
	}
}
