package mcu

import (
	"fmt"

	"proverattest/internal/crypto/cost"
	"proverattest/internal/sim"
)

// Task is a unit of firmware identity: a name, the program-counter region
// its code occupies, and an optional IRQ handler entry. The simulator is
// transaction-level — task bodies are Go closures — but every memory access
// a body makes is checked against the EA-MPU using the task's code region,
// which is the property (execution-aware access control) the paper's
// mitigations are built on.
type Task struct {
	Name string
	Code Region
	// Uninterruptible marks code that must run to completion with
	// interrupts held off, like SMART's ROM-resident attestation code.
	// Interrupts raised meanwhile stay pending (one deep); further
	// occurrences are counted as missed.
	Uninterruptible bool
	// Handler runs when an interrupt vector dispatches to this task's
	// entry point (Code.Start). Tasks that are never interrupt targets
	// leave it nil.
	Handler func(*Exec)
}

type job struct {
	task   *Task
	fn     func(*Exec)
	onDone func(*Exec)
}

// MCU is the simulated prover microcontroller. All state mutation happens
// on the simulation kernel's single thread; the type is not safe for
// concurrent use, by design (the hardware it models is single-core).
type MCU struct {
	K     *sim.Kernel
	Space *AddressSpace
	MPU   *EAMPU
	Bus   *Bus
	IRQ   *IRQController

	tasks   []*Task
	byName  map[string]*Task
	byEntry map[Addr]*Task

	busy      bool
	busyUntil sim.Time
	queue     []job

	halted     bool
	haltReason string

	// ActiveCycles accumulates all cycles spent executing jobs, the basis
	// for the energy model.
	ActiveCycles cost.Cycles
	// JobsRun counts completed jobs, for test assertions.
	JobsRun uint64
}

// Config selects the MCU's synthesis-time parameters.
type Config struct {
	// MPURules is the EA-MPU rule capacity #r (TrustLite-style,
	// boot-programmable).
	MPURules int
	// HardwiredRules, when non-nil, builds a SMART-style MPU instead:
	// these rules are fixed in silicon, MPURules is ignored, and no
	// software — including secure boot — can alter the table.
	HardwiredRules []Rule
}

// New constructs an MCU with the standard memory map on the given kernel.
func New(k *sim.Kernel, cfg Config) *MCU {
	space := NewAddressSpace()
	var mpu *EAMPU
	if cfg.HardwiredRules != nil {
		mpu = NewHardwiredEAMPU(cfg.HardwiredRules)
	} else {
		mpu = NewEAMPU(cfg.MPURules)
	}
	m := &MCU{
		K:       k,
		Space:   space,
		MPU:     mpu,
		Bus:     NewBus(space, mpu),
		byName:  make(map[string]*Task),
		byEntry: make(map[Addr]*Task),
	}
	m.Bus.now = k.Now
	m.IRQ = newIRQController(m)
	space.MapDevice(MPUWindow, mpu)
	space.MapDevice(IRQWindow, m.IRQ)
	return m
}

// CycleNow converts the kernel's current time to CPU cycles at 24 MHz.
func (m *MCU) CycleNow() cost.Cycles {
	return cost.Cycles(uint64(m.K.Now()) * 3 / 125)
}

// Halted reports whether the MCU has stopped (e.g. secure-boot refusal).
func (m *MCU) Halted() (bool, string) { return m.halted, m.haltReason }

// Halt stops the MCU: queued and future jobs are dropped.
func (m *MCU) Halt(reason string) {
	m.halted = true
	m.haltReason = reason
	m.queue = nil
}

// ClearHalt releases a halt, as a hardware reset line would.
func (m *MCU) ClearHalt() {
	m.halted = false
	m.haltReason = ""
}

// RegisterTask adds firmware identity t. Names must be unique; entry
// points (Code.Start) must be unique so interrupt dispatch is unambiguous.
func (m *MCU) RegisterTask(t *Task) *Task {
	if t.Name == "" {
		panic("mcu: task without a name")
	}
	if _, dup := m.byName[t.Name]; dup {
		panic(fmt.Sprintf("mcu: duplicate task name %q", t.Name))
	}
	if _, dup := m.byEntry[t.Code.Start]; dup {
		panic(fmt.Sprintf("mcu: duplicate task entry point %v", t.Code.Start))
	}
	m.tasks = append(m.tasks, t)
	m.byName[t.Name] = t
	m.byEntry[t.Code.Start] = t
	return t
}

// TaskByName looks up registered firmware.
func (m *MCU) TaskByName(name string) (*Task, bool) {
	t, ok := m.byName[name]
	return t, ok
}

func (m *MCU) taskByEntry(entry Addr) (*Task, bool) {
	t, ok := m.byEntry[entry]
	return t, ok
}

// Busy reports whether a job is currently executing.
func (m *MCU) Busy() bool { return m.busy }

// Submit queues fn to run as task t. If the MCU is idle it starts
// immediately (at the current simulated time); otherwise it runs after the
// current job and any previously queued work. onDone, if non-nil, is called
// at the job's completion time with the finished execution context.
func (m *MCU) Submit(t *Task, fn func(*Exec), onDone func(*Exec)) {
	if m.halted {
		return
	}
	j := job{task: t, fn: fn, onDone: onDone}
	if m.busy {
		m.queue = append(m.queue, j)
		return
	}
	m.start(j)
}

// submitFront queues an interrupt-handler job ahead of ordinary work.
func (m *MCU) submitFront(t *Task, fn func(*Exec)) {
	if m.halted {
		return
	}
	j := job{task: t, fn: fn}
	if m.busy {
		m.queue = append([]job{j}, m.queue...)
		return
	}
	m.start(j)
}

// start executes a job. The body runs immediately (its memory effects are
// atomic at the start time) and the cycles it accumulated determine how
// long the MCU stays busy; completion — and therefore delivery of pended
// interrupts and the next queued job — happens that much later on the
// kernel timeline. This models SMART/TrustLite-style run-to-completion
// firmware with interrupt latency bounded by the current job's length.
func (m *MCU) start(j job) {
	m.busy = true
	e := &Exec{m: m, task: j.task, startCycle: m.CycleNow()}
	j.fn(e)
	m.ActiveCycles += e.cycles
	m.busyUntil = m.K.Now() + sim.Duration(e.cycles.Nanoseconds())
	m.K.At(m.busyUntil, func() { m.complete(j, e) })
}

func (m *MCU) complete(j job, e *Exec) {
	m.JobsRun++
	// onDone runs with the core still marked busy: a continuation that
	// submits follow-up work (e.g. the next measurement chunk) must queue
	// behind jobs that arrived meanwhile, or chained jobs would starve
	// everything else and chunked execution could never interleave.
	if j.onDone != nil {
		j.onDone(e)
	}
	m.busy = false
	if m.halted {
		return
	}
	// Interrupts pended during the job dispatch first...
	m.IRQ.deliverPending()
	// ...then the next queued job, unless an ISR claimed the core.
	if !m.busy && len(m.queue) > 0 {
		next := m.queue[0]
		m.queue = m.queue[1:]
		m.start(next)
	}
}

// Exec is the execution context handed to a running task body. All bus
// traffic flows through it, stamped with the task's code region, and Tick
// accumulates the modeled cycle cost of computation.
type Exec struct {
	m          *MCU
	task       *Task
	pc         Addr
	pcSet      bool
	startCycle cost.Cycles
	cycles     cost.Cycles
	faults     []*Fault
}

// Task returns the firmware identity this context executes as.
func (e *Exec) Task() *Task { return e.task }

// PC returns the program-counter value used for EA-MPU checks: the task's
// code entry by default, or the instruction-accurate value maintained by
// the ISA interpreter.
func (e *Exec) PC() Addr {
	if e.pcSet {
		return e.pc
	}
	return e.task.Code.Start
}

// SetPC tracks the real program counter during instruction-level execution
// (internal/isa). It models the hardware PC the EA-MPU snoops; closure-
// style firmware has no reason to call it — a closure's effective PC is
// its task's code region, which is exactly what the default provides.
func (e *Exec) SetPC(pc Addr) {
	e.pc = pc
	e.pcSet = true
}

// Tick charges c cycles of computation to the task.
func (e *Exec) Tick(c cost.Cycles) { e.cycles += c }

// Cycles reports the cycles accumulated so far.
func (e *Exec) Cycles() cost.Cycles { return e.cycles }

// CycleNow returns the MCU cycle counter as seen from inside the job: the
// start-of-job counter plus the work performed so far.
func (e *Exec) CycleNow() cost.Cycles { return e.startCycle + e.cycles }

// Faults returns the access faults this job has incurred.
func (e *Exec) Faults() []*Fault { return e.faults }

func (e *Exec) noteFault(f *Fault) {
	if f != nil {
		e.faults = append(e.faults, f)
	}
}

// Read copies n bytes from addr, subject to protection checks.
func (e *Exec) Read(addr Addr, n uint32) ([]byte, *Fault) {
	data, f := e.m.Bus.Read(e.PC(), addr, n)
	e.noteFault(f)
	return data, f
}

// View returns n bytes at addr in place, subject to the same protection
// checks as Read (see Bus.View).
func (e *Exec) View(addr Addr, n uint32) ([]byte, *Fault) {
	data, f := e.m.Bus.View(e.PC(), addr, n)
	e.noteFault(f)
	return data, f
}

// Write stores data at addr, subject to protection checks.
func (e *Exec) Write(addr Addr, data []byte) *Fault {
	f := e.m.Bus.Write(e.PC(), addr, data)
	e.noteFault(f)
	return f
}

// Load32 reads a 32-bit word (memory or MMIO register).
func (e *Exec) Load32(addr Addr) (uint32, *Fault) {
	v, f := e.m.Bus.Load32(e.PC(), addr)
	e.noteFault(f)
	return v, f
}

// Store32 writes a 32-bit word (memory or MMIO register).
func (e *Exec) Store32(addr Addr, v uint32) *Fault {
	f := e.m.Bus.Store32(e.PC(), addr, v)
	e.noteFault(f)
	return f
}

// Load64 reads two consecutive 32-bit registers/words as one 64-bit value
// (low word first).
func (e *Exec) Load64(addr Addr) (uint64, *Fault) {
	lo, f := e.Load32(addr)
	if f != nil {
		return 0, f
	}
	hi, f := e.Load32(addr + 4)
	if f != nil {
		return 0, f
	}
	return uint64(hi)<<32 | uint64(lo), nil
}
