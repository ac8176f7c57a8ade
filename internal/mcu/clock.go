package mcu

import (
	"errors"
	"fmt"

	"proverattest/internal/sim"
)

// Clock MMIO windows inside ClockWindow: the wide real-time counter (the
// paper's Figure 1a design) and the short LSB counter with wrap interrupt
// (Figure 1b). Both can be present; a device configuration decides which
// one the trust anchor consults.
var (
	WideClockWindow = Region{Start: ClockWindow.Start + 0x00, Size: 0x40}
	LSBClockWindow  = Region{Start: ClockWindow.Start + 0x40, Size: 0x40}
)

// WideClock register layout (word offsets):
//
//	0x00 VALUE_LO  low 32 bits of the counter (read-only register file)
//	0x04 VALUE_HI  high 32 bits
//	0x08 SET_LO    staging register for a software clock-set
//	0x0c SET_HI    writing here commits (SET_HI<<32 | SET_LO) as the value
//
// The set registers model a settable real-time counter. In the paper's
// protected configurations an EA-MPU rule covers this window so that no
// software can write it — the hardware counter is then effectively
// read-only, which is what defeats Adv_roam's clock-reset move (§5, §6.2).
const (
	wideRegValueLo = 0x00
	wideRegValueHi = 0x04
	wideRegSetLo   = 0x08
	wideRegSetHi   = 0x0c
)

// WideClock is a free-running real-time counter clocked from the CPU cycle
// counter through a power-of-two prescaler: value = (cycles >> Prescaler)
// mod 2^Width. A 64-bit register at full rate wraps after ~24,372 years at
// 24 MHz; a 32-bit register with a 2^20 divider wraps after ~6 years with
// 42 ms resolution (§6.3).
type WideClock struct {
	m         *MCU
	width     uint // counter width in bits (32 or 64)
	prescaler uint // divide the 24 MHz cycle stream by 2^prescaler

	offset uint64 // added to the raw cycle count when software sets the clock
	setLo  uint32
}

// NewWideClock creates and maps the counter.
func NewWideClock(m *MCU, width, prescaler uint) *WideClock {
	if width == 0 || width > 64 {
		panic(fmt.Sprintf("mcu: wide clock width %d out of range", width))
	}
	c := &WideClock{m: m, width: width, prescaler: prescaler}
	m.Space.MapDevice(WideClockWindow, c)
	return c
}

func (c *WideClock) mask() uint64 {
	if c.width == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << c.width) - 1
}

// Value returns the current counter reading.
func (c *WideClock) Value() uint64 {
	raw := uint64(c.m.CycleNow()) + c.offset
	return (raw >> c.prescaler) & c.mask()
}

// set rewinds or advances the counter to v by adjusting the offset.
func (c *WideClock) set(v uint64) {
	cycles := uint64(c.m.CycleNow())
	c.offset = (v&c.mask())<<c.prescaler - cycles
}

// WrapPeriodCycles reports the raw cycle count between wrap-arounds
// (saturating at the maximum uint64 for the 64-bit full-rate case).
func (c *WideClock) WrapPeriodCycles() uint64 {
	shift := c.width + c.prescaler
	if shift >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << shift
}

var _ Device = (*WideClock)(nil)

// DeviceName implements Device.
func (c *WideClock) DeviceName() string { return "wide-clock" }

// Load implements Device.
func (c *WideClock) Load(off uint32) (uint32, error) {
	switch off {
	case wideRegValueLo:
		return uint32(c.Value()), nil
	case wideRegValueHi:
		return uint32(c.Value() >> 32), nil
	case wideRegSetLo:
		return c.setLo, nil
	case wideRegSetHi:
		return 0, nil
	}
	return 0, fmt.Errorf("wide-clock: reserved register %#x", off)
}

// Store implements Device.
func (c *WideClock) Store(off uint32, v uint32) error {
	switch off {
	case wideRegValueLo, wideRegValueHi:
		return errors.New("wide-clock: value registers are read-only")
	case wideRegSetLo:
		c.setLo = v
		return nil
	case wideRegSetHi:
		c.set(uint64(v)<<32 | uint64(c.setLo))
		return nil
	}
	return fmt.Errorf("wide-clock: reserved register %#x", off)
}

// Bus addresses of the wide clock's registers.
var (
	WideClockValueAddr = WideClockWindow.Start + wideRegValueLo
	WideClockSetLoAddr = WideClockWindow.Start + wideRegSetLo
	WideClockSetHiAddr = WideClockWindow.Start + wideRegSetHi
)

// LSBClock register layout (word offsets):
//
//	0x00 VALUE  current short-term counter value (read-only)
const lsbRegValue = 0x00

// LSBClock is the Figure 1b short-term counter: Clock_LSB counts prescaled
// cycles in a narrow register and raises an interrupt each time it wraps
// (①); trusted Code_Clock then increments the software-maintained
// Clock_MSB (③). It mirrors the timer designs of Siskiyou Peak and the
// MSP430 family, which is why the paper prices it at zero extra hardware.
type LSBClock struct {
	m         *MCU
	width     uint
	prescaler uint
	line      int

	running   bool
	nextWrap  uint64 // raw cycle count of the next wrap
	wrapEvent *sim.Event
	wraps     uint64
}

// NewLSBClock creates and maps the counter; Start arms the wrap interrupt.
func NewLSBClock(m *MCU, width, prescaler uint, irqLine int) *LSBClock {
	if width == 0 || width+prescaler >= 63 {
		panic(fmt.Sprintf("mcu: LSB clock width %d + prescaler %d out of range", width, prescaler))
	}
	c := &LSBClock{m: m, width: width, prescaler: prescaler, line: irqLine}
	m.Space.MapDevice(LSBClockWindow, c)
	return c
}

// Wraps reports how many wrap events have occurred since Start.
func (c *LSBClock) Wraps() uint64 { return c.wraps }

// WrapPeriodCycles is the raw cycle count between wraps: 2^(width+prescaler).
func (c *LSBClock) WrapPeriodCycles() uint64 {
	return uint64(1) << (c.width + c.prescaler)
}

// Value returns the current counter reading.
func (c *LSBClock) Value() uint32 {
	raw := uint64(c.m.CycleNow())
	return uint32((raw >> c.prescaler) & ((uint64(1) << c.width) - 1))
}

// Start arms the periodic wrap interrupt. Idempotent.
func (c *LSBClock) Start() {
	if c.running {
		return
	}
	c.running = true
	period := c.WrapPeriodCycles()
	now := uint64(c.m.CycleNow())
	c.nextWrap = (now/period + 1) * period
	c.scheduleWrap()
}

// Stop disarms the wrap interrupt (hardware reset path; software cannot
// reach this — it would instead try to mask the IRQ line or patch the IDT,
// which is exactly what the protected configurations prevent).
func (c *LSBClock) Stop() {
	c.running = false
	if c.wrapEvent != nil {
		c.wrapEvent.Cancel()
		c.wrapEvent = nil
	}
}

func (c *LSBClock) scheduleWrap() {
	// cycles → ns: 1 cycle = 125/3 ns. Rounding up keeps the event at or
	// after the true wrap instant so Value() has already wrapped when the
	// handler reads it.
	ns := (c.nextWrap*125 + 2) / 3
	when := sim.Time(ns)
	if when < c.m.K.Now() {
		when = c.m.K.Now()
	}
	c.wrapEvent = c.m.K.At(when, c.onWrap)
}

func (c *LSBClock) onWrap() {
	if !c.running {
		return
	}
	c.wraps++
	c.m.IRQ.Raise(c.line)
	c.nextWrap += c.WrapPeriodCycles()
	c.scheduleWrap()
}

var _ Device = (*LSBClock)(nil)

// DeviceName implements Device.
func (c *LSBClock) DeviceName() string { return "lsb-clock" }

// Load implements Device.
func (c *LSBClock) Load(off uint32) (uint32, error) {
	if off == lsbRegValue {
		return c.Value(), nil
	}
	return 0, fmt.Errorf("lsb-clock: reserved register %#x", off)
}

// Store implements Device.
func (c *LSBClock) Store(off uint32, v uint32) error {
	return errors.New("lsb-clock: counter is read-only")
}

// LSBClockValueAddr is the bus address of the LSB counter value register.
var LSBClockValueAddr = LSBClockWindow.Start + lsbRegValue
