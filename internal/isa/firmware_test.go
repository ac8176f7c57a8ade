package isa

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"
	"testing/quick"

	"proverattest/internal/mcu"
	"proverattest/internal/sim"
)

// A small library of SP16 routines — the prover's application-side
// toolbox, written as real machine code and checked against Go reference
// implementations: the evidence that the ISA and the assembler are
// complete enough for genuine firmware, not just straight-line demos.
//
// Calling convention: arguments in r1, r2, r3; result in r2; r4–r9 are
// scratch; routines end in HALT (they run as top-level jobs, not calls).

// memcpySrc copies r3 bytes from address r2 to address r1.
const memcpySrc = `
	; r1 = dst, r2 = src, r3 = len
	beq  r3, r0, done
loop:
	lb   r4, 0(r2)
	sb   r4, 0(r1)
	addi r1, r1, 1
	addi r2, r2, 1
	addi r3, r3, -1
	bne  r3, r0, loop
done:
	halt
`

// memsetSrc stores the low byte of r2 into r3 bytes starting at r1.
const memsetSrc = `
	; r1 = dst, r2 = value, r3 = len
	beq  r3, r0, done
loop:
	sb   r2, 0(r1)
	addi r1, r1, 1
	addi r3, r3, -1
	bne  r3, r0, loop
done:
	halt
`

// fletcher16Src computes the Fletcher-16 checksum of r3 bytes at r1,
// returning (sum2 << 8 | sum1) in r2. Modulo 255 is computed by repeated
// subtraction — SP16 has no divide, like most low-end MCUs.
const fletcher16Src = `
	; r1 = data, r3 = len → r2 = checksum
	li   r4, 0          ; sum1
	li   r5, 0          ; sum2
	li   r6, 255
	beq  r3, r0, fin
loop:
	lb   r7, 0(r1)
	add  r4, r4, r7
mod1:
	bltu r4, r6, m1ok   ; while sum1 >= 255: sum1 -= 255
	sub  r4, r4, r6
	j    mod1
m1ok:
	add  r5, r5, r4
mod2:
	bltu r5, r6, m2ok
	sub  r5, r5, r6
	j    mod2
m2ok:
	addi r1, r1, 1
	addi r3, r3, -1
	bne  r3, r0, loop
fin:
	slli r2, r5, 8
	or   r2, r2, r4
	halt
`

// strlenSrc counts bytes at r1 up to the first zero, result in r2.
const strlenSrc = `
	; r1 = str → r2 = length
	li   r2, 0
loop:
	lb   r4, 0(r1)
	beq  r4, r0, done
	addi r1, r1, 1
	addi r2, r2, 1
	j    loop
done:
	halt
`

// sum32Src adds r3 little-endian words starting at r1, result in r2 —
// the classic firmware image checksum.
const sum32Src = `
	; r1 = data, r3 = word count → r2 = sum
	li   r2, 0
	beq  r3, r0, done
loop:
	lw   r4, 0(r1)
	add  r2, r2, r4
	addi r1, r1, 4
	addi r3, r3, -1
	bne  r3, r0, loop
done:
	halt
`

// crc32Src computes the bit-reflected IEEE CRC-32 of r3 bytes at r1,
// result in r2 — byte-at-a-time with the 8-step conditional-xor inner
// loop, exactly as table-less embedded implementations do it.
const crc32Src = `
	; r1 = data, r3 = len → r2 = crc
	li   r2, 0xFFFFFFFF
	li   r5, 0xEDB88320   ; reflected IEEE polynomial
	li   r6, 1
	beq  r3, r0, fin
byteloop:
	lb   r4, 0(r1)
	xor  r2, r2, r4
	li   r7, 8
bitloop:
	and  r8, r2, r6       ; low bit
	srli r2, r2, 1
	beq  r8, r0, nopoly
	xor  r2, r2, r5
nopoly:
	addi r7, r7, -1
	bne  r7, r0, bitloop
	addi r1, r1, 1
	addi r3, r3, -1
	bne  r3, r0, byteloop
fin:
	xori r2, r2, 0xFFFF   ; final inversion, low half...
	li   r9, 0xFFFF0000
	xor  r2, r2, r9       ; ...and high half (xori imm16 is zero-extended)
	halt
`

// routineRegion is where runRoutine loads a routine.
var routineRegion = mcu.Region{Start: mcu.FlashRegion.Start + 0x50000, Size: 0x2000}

// runRoutine assembles src into routineRegion, seeds r1–r3 with args, and
// executes it to completion on the MCU, returning the final ISA state.
// The register seeding is modeled as part of the dispatch cost.
func runRoutine(m *mcu.MCU, k *sim.Kernel, name, src string, args ...uint32) (Result, error) {
	if _, err := LoadProgram(m, routineRegion.Start, src); err != nil {
		return Result{}, fmt.Errorf("assembling %s: %w", name, err)
	}
	task, ok := m.TaskByName("firmware")
	if !ok {
		task = m.RegisterTask(&mcu.Task{Name: "firmware", Code: routineRegion})
	}
	var res Result
	done := false
	m.Submit(task, func(e *mcu.Exec) {
		core := &Core{}
		for i, a := range args {
			core.R[i+1] = a
		}
		e.Tick(8) // dispatch: argument registers loaded by the caller
		res = core.Run(e, routineRegion.Start, 10_000_000)
	}, func(*mcu.Exec) { done = true })
	deadline := k.Now() + sim.Hour
	for !done && k.Now() < deadline {
		if !k.Step() {
			break
		}
	}
	if !done {
		return res, fmt.Errorf("%s did not complete", name)
	}
	return res, nil
}

// fletcher16Ref is the Go reference implementation of fletcher16Src.
func fletcher16Ref(data []byte) uint16 {
	var sum1, sum2 uint32
	for _, b := range data {
		sum1 = (sum1 + uint32(b)) % 255
		sum2 = (sum2 + sum1) % 255
	}
	return uint16(sum2<<8 | sum1)
}

func freshMCU() (*mcu.MCU, *sim.Kernel) {
	k := sim.NewKernel()
	return mcu.New(k, mcu.Config{MPURules: 4}), k
}

func mustRun(t *testing.T, m *mcu.MCU, k *sim.Kernel, name, src string, args ...uint32) Result {
	t.Helper()
	res, err := runRoutine(m, k, name, src, args...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopHalt {
		t.Fatalf("%s stopped with %v (fault %v) at pc %#x", name, res.Reason, res.Fault, uint32(res.PC))
	}
	return res
}

func TestMemcpy(t *testing.T) {
	m, k := freshMCU()
	src := mcu.RAMRegion.Start
	dst := mcu.RAMRegion.Start + 0x1000
	data := []byte("the quick brown fox jumps over the lazy dog")
	m.Space.DirectWrite(src, data)

	mustRun(t, m, k, "memcpy", memcpySrc, uint32(dst), uint32(src), uint32(len(data)))
	if got := m.Space.DirectRead(dst, uint32(len(data))); !bytes.Equal(got, data) {
		t.Fatalf("memcpy produced %q", got)
	}
}

func TestMemcpyZeroLength(t *testing.T) {
	m, k := freshMCU()
	res := mustRun(t, m, k, "memcpy", memcpySrc, uint32(mcu.RAMRegion.Start), uint32(mcu.RAMRegion.Start+64), 0)
	if res.Instructions > 3 {
		t.Fatalf("zero-length memcpy executed %d instructions", res.Instructions)
	}
}

func TestMemset(t *testing.T) {
	m, k := freshMCU()
	dst := mcu.RAMRegion.Start + 0x2000
	mustRun(t, m, k, "memset", memsetSrc, uint32(dst), 0xAB, 100)
	got := m.Space.DirectRead(dst, 100)
	if !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 100)) {
		t.Fatalf("memset produced %x...", got[:8])
	}
	// The byte after the range is untouched.
	if m.Space.DirectRead(dst+100, 1)[0] == 0xAB {
		t.Fatal("memset overran its range")
	}
}

func TestFletcher16MatchesReference(t *testing.T) {
	m, k := freshMCU()
	data := []byte("abcdefgh")
	addr := mcu.RAMRegion.Start + 0x3000
	m.Space.DirectWrite(addr, data)
	res := mustRun(t, m, k, "fletcher16", fletcher16Src, uint32(addr), 0, uint32(len(data)))
	want := fletcher16Ref(data)
	if uint16(res.Regs[2]) != want {
		t.Fatalf("fletcher16 = %#x, want %#x", res.Regs[2], want)
	}
}

func TestFletcher16Quick(t *testing.T) {
	m, k := freshMCU()
	addr := mcu.RAMRegion.Start + 0x4000
	f := func(data []byte) bool {
		if len(data) > 256 {
			data = data[:256]
		}
		if len(data) == 0 {
			return true
		}
		m.Space.DirectWrite(addr, data)
		res, err := runRoutine(m, k, "fletcher16", fletcher16Src, uint32(addr), 0, uint32(len(data)))
		if err != nil || res.Reason != StopHalt {
			return false
		}
		return uint16(res.Regs[2]) == fletcher16Ref(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStrlen(t *testing.T) {
	m, k := freshMCU()
	addr := mcu.RAMRegion.Start + 0x5000
	m.Space.DirectWrite(addr, []byte("hello, prover\x00garbage"))
	res := mustRun(t, m, k, "strlen", strlenSrc, uint32(addr))
	if res.Regs[2] != 13 {
		t.Fatalf("strlen = %d, want 13", res.Regs[2])
	}
	// Empty string.
	m.Space.DirectWrite(addr, []byte{0})
	res = mustRun(t, m, k, "strlen", strlenSrc, uint32(addr))
	if res.Regs[2] != 0 {
		t.Fatalf("strlen(\"\") = %d", res.Regs[2])
	}
}

func TestSum32(t *testing.T) {
	m, k := freshMCU()
	addr := mcu.RAMRegion.Start + 0x6000
	words := []uint32{0x11111111, 0x22222222, 0xF0000001, 0x10000001}
	var want uint32
	for i, w := range words {
		m.Space.DirectStore32(addr+mcu.Addr(4*i), w)
		want += w
	}
	res := mustRun(t, m, k, "sum32", sum32Src, uint32(addr), 0, uint32(len(words)))
	if res.Regs[2] != want {
		t.Fatalf("sum32 = %#x, want %#x (wraparound arithmetic)", res.Regs[2], want)
	}
}

func TestCRC32MatchesStdlib(t *testing.T) {
	m, k := freshMCU()
	addr := mcu.RAMRegion.Start + 0x8000
	data := []byte("123456789") // the classic CRC check string → 0xCBF43926
	m.Space.DirectWrite(addr, data)
	res := mustRun(t, m, k, "crc32", crc32Src, uint32(addr), 0, uint32(len(data)))
	if res.Regs[2] != 0xCBF43926 {
		t.Fatalf("crc32(\"123456789\") = %#x, want 0xCBF43926", res.Regs[2])
	}
}

func TestCRC32Quick(t *testing.T) {
	m, k := freshMCU()
	addr := mcu.RAMRegion.Start + 0x9000
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 64 {
			data = data[:64]
		}
		m.Space.DirectWrite(addr, data)
		res, err := runRoutine(m, k, "crc32", crc32Src, uint32(addr), 0, uint32(len(data)))
		if err != nil || res.Reason != StopHalt {
			return false
		}
		return res.Regs[2] == crc32.ChecksumIEEE(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRoutinesCostRealisticCycles(t *testing.T) {
	// A 100-byte memcpy is ~600 instructions of byte loop; at 24 MHz that
	// is tens of microseconds — the simulator must charge accordingly.
	m, k := freshMCU()
	res := mustRun(t, m, k, "memcpy", memcpySrc,
		uint32(mcu.RAMRegion.Start+0x7000), uint32(mcu.RAMRegion.Start), 100)
	if res.Instructions < 500 || res.Instructions > 700 {
		t.Fatalf("100-byte memcpy executed %d instructions", res.Instructions)
	}
	us := float64(res.Cycles) / 24.0
	if us < 20 || us > 80 {
		t.Fatalf("100-byte memcpy cost %.1f µs, want tens of µs", us)
	}
}
