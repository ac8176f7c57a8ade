// Package anchor implements the prover's trust anchor: the immutable
// Code_Attest that authenticates verifier requests, checks freshness and
// measures memory with K_Attest, and the Code_Clock interrupt handler that
// maintains the software clock of the paper's Figure 1b design. The anchor
// runs as firmware on the simulated MCU — every access to the key, the
// counter, the clock and the IDT goes through the bus and is subject to
// the EA-MPU rules installed at secure boot, so the paper's protected and
// unprotected configurations differ only in those rules, exactly as in the
// prototype (§6.2).
package anchor

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"

	"proverattest/internal/crypto/cost"
	"proverattest/internal/crypto/ecc"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
)

// Code regions and state locations of the trust anchor. Code_Attest and
// Code_Clock live in ROM (immutable, like SMART); K_Attest sits in ROM in
// the default variant; counter_R occupies a flash info word (non-volatile,
// as §4.2 requires); Clock_MSB and the IDT live in the small SRAM bank
// excluded from the measured image.
var (
	CodeAttestRegion = mcu.Region{Start: mcu.ROMRegion.Start + 0x1000, Size: 0x1000}
	CodeClockRegion  = mcu.Region{Start: mcu.ROMRegion.Start + 0x2000, Size: 0x0800}

	KeyROMAddr   = mcu.ROMRegion.Start + 0xF000
	KeyFlashAddr = mcu.FlashRegion.Start + 0x7F800
	KeySize      = uint32(20)

	CounterAddr   = mcu.FlashRegion.Start + 0x7F000
	CounterSize   = uint32(8)
	NonceAreaAddr = mcu.FlashRegion.Start + 0x7C000

	IDTBase      = mcu.SRAMRegion.Start
	IDTSize      = uint32(4 * mcu.NumIRQLines)
	ClockMSBAddr = mcu.SRAMRegion.Start + 0x100

	// SyncOffsetAddr holds the signed clock-sync adjustment (int64
	// two's-complement milliseconds) applied by the clock-synchronisation
	// service; see internal/services.
	SyncOffsetAddr = mcu.SRAMRegion.Start + 0x108

	// LastDigestAddr holds the digest of the last full measurement (20
	// bytes of anchor SRAM, outside the measured image). The fast path
	// vouches for exactly these bytes; under Protection.Monitor they are
	// writable only by Code_Attest, so application code can neither forge
	// the stored digest nor clear the monitor that guards it.
	LastDigestAddr = mcu.SRAMRegion.Start + 0x110

	// TimerIRQLine is the interrupt line of the Clock_LSB wrap event.
	TimerIRQLine = 5

	// LSBWidth is the Clock_LSB counter width: 2^26 cycles ≈ 2.80 s per
	// wrap at 24 MHz — longer than one full-memory measurement (≈754 ms),
	// so at most one wrap pends during an uninterruptible attestation run.
	LSBWidth = uint(26)
)

// ClockDesign selects the prover's real-time clock implementation (§6.3).
type ClockDesign int

// Clock designs.
const (
	// ClockNone: no clock; timestamp freshness is unavailable.
	ClockNone ClockDesign = iota
	// ClockWide64: Figure 1a, a 64-bit full-rate hardware counter.
	ClockWide64
	// ClockWide32Div: 32-bit counter behind a 2^20 divider (42 ms
	// resolution, ~6 year wrap).
	ClockWide32Div
	// ClockSW: Figure 1b, Clock_LSB wrap interrupt + Code_Clock-maintained
	// Clock_MSB.
	ClockSW
)

func (d ClockDesign) String() string {
	switch d {
	case ClockNone:
		return "no clock"
	case ClockWide64:
		return "64-bit HW clock"
	case ClockWide32Div:
		return "32-bit/2^20 HW clock"
	case ClockSW:
		return "SW-clock (LSB+IRQ)"
	}
	return fmt.Sprintf("clock(%d)", int(d))
}

// KeyLocation selects where K_Attest is stored.
type KeyLocation int

// Key locations: ROM is inherently write-protected; flash needs the
// EA-MPU rule to cover writes too. The paper notes the EA-MAC cost is the
// same either way (§6.3).
const (
	KeyInROM KeyLocation = iota
	KeyInFlash
)

// Protection selects which EA-MPU mitigations secure boot installs,
// spanning the paper's configurations from "baseline attestation" (key
// only) to the full Figure 1a/1b designs.
type Protection struct {
	// Key installs the EA-MAC rule making K_Attest readable only by
	// Code_Attest. This is the SMART/TrustLite baseline.
	Key bool
	// Counter makes counter_R (and the nonce history, when used) writable
	// only by Code_Attest.
	Counter bool
	// Clock write-protects the clock: the wide-clock MMIO window, or — for
	// the SW design — Clock_MSB, the IDT and the interrupt configuration.
	Clock bool
	// SyncOffset protects the clock-synchronisation offset word (writable
	// only by Code_Attest); required when the clock-sync service is used.
	SyncOffset bool
	// Monitor restricts the write-monitor registers and the last-digest
	// SRAM words to Code_Attest, so only the attestation routine can rearm
	// the dirty latch (the RATA access rule). Only meaningful when the
	// anchor is configured with a monitor (Config.Monitor); without the
	// rule, application code can rearm the latch — which desyncs the
	// monitor epoch from the verifier rather than hiding anything, but
	// costs an extra full measurement per lie (see internal/core's
	// fast-path adversary matrix).
	Monitor bool
	// LockMPU sets the EA-MPU lockdown bit after boot.
	LockMPU bool
}

// FullProtection enables every mitigation, as in Figure 1.
func FullProtection() Protection {
	return Protection{Key: true, Counter: true, Clock: true, Monitor: true, LockMPU: true}
}

// Profile selects which published architecture the anchor emulates. The
// paper builds its prototype on TrustLite and notes the countermeasures
// "are easily adaptable to other attestation techniques, such as SMART or
// TyTAN" (§6.2); all three are provided.
type Profile int

// Architecture profiles.
const (
	// ProfileTrustLite (default): EA-MPU rules are programmed by secure
	// boot and locked; attestation code may be configured interruptible.
	ProfileTrustLite Profile = iota
	// ProfileSMART: the EA-MAC rules are hardwired in silicon (no
	// boot-time programming, immune to reset), K_Attest lives in ROM, and
	// Code_Attest is uninterruptible — SMART's static, minimal design.
	ProfileSMART
	// ProfileTyTAN: TrustLite's programmable protection plus interruptible
	// trust-anchor execution (TyTAN's real-time orientation).
	ProfileTyTAN
)

func (p Profile) String() string {
	switch p {
	case ProfileTrustLite:
		return "TrustLite"
	case ProfileSMART:
		return "SMART"
	case ProfileTyTAN:
		return "TyTAN"
	}
	return fmt.Sprintf("profile(%d)", int(p))
}

// Config assembles a trust anchor.
type Config struct {
	// Profile selects the underlying architecture (default TrustLite).
	Profile Profile
	// Freshness is the anti-replay mechanism the anchor enforces.
	Freshness protocol.FreshnessKind
	// AuthKind is the request-authentication scheme. Symmetric schemes key
	// themselves from the K_Attest bytes in protected memory; ECDSA uses
	// VerifierPublic.
	AuthKind protocol.AuthKind
	// VerifierPublic is the verifier's public key for AuthKind ==
	// AuthECDSA.
	VerifierPublic ecc.Point
	// AttestKey is K_Attest, provisioned into the key location at
	// manufacture.
	AttestKey []byte
	// KeyLocation places K_Attest in ROM (default) or flash.
	KeyLocation KeyLocation
	// Clock selects the clock design.
	Clock ClockDesign
	// TimestampWindowMs/TimestampSkewMs parameterise timestamp freshness
	// (maximum age, tolerated future skew), in milliseconds.
	TimestampWindowMs uint64
	TimestampSkewMs   uint64
	// NonceCapacity bounds the nonce history (FreshNonceHistory).
	NonceCapacity int
	// MeasuredRegion is the memory covered by the attestation measurement.
	// Zero value selects the full 512 KB RAM (the paper's §3.1 costing).
	MeasuredRegion mcu.Region
	// MeasurementChunk, when non-zero, streams the measurement in chunks
	// of this many bytes, each a separate job, so interrupts and queued
	// application work interleave (TyTAN-style real-time compliance). Zero
	// means one atomic, uninterruptible pass (SMART-style) — immune to the
	// TOCTOU relocation attack that chunking re-opens (paper footnote 1).
	MeasurementChunk uint32
	// Monitor installs the RATA-style write monitor over MeasuredRegion
	// and enables the O(1) fast-path response for clean provers.
	Monitor bool
	// Protection selects the installed mitigations.
	Protection Protection
	// InterruptibleAttest allows interrupts to pend-and-deliver around
	// Code_Attest jobs (TrustLite-style). False models SMART's
	// uninterruptible ROM code. Both behave identically in this
	// transaction-level model except for bookkeeping; the flag is kept for
	// configuration fidelity.
	InterruptibleAttest bool
	// SwarmKey is the fleet-wide broadcast key K_Swarm gating collective-
	// attestation requests (see internal/protocol swarm frames). Nil
	// disables swarm participation. It authenticates requests only — the
	// node's evidence is always keyed with its per-device K_Attest.
	SwarmKey []byte
	// SwarmIndex is this device's member index in the fleet spanning tree.
	SwarmIndex uint16
	// SwarmFleet is the fleet member count; it sizes the presence bitmap
	// in aggregate responses. Required (>0) when SwarmKey is set.
	SwarmFleet int
}

// Stats counts what the anchor observed; the attack harness reads these to
// decide experiment outcomes.
type Stats struct {
	Received          uint64 // request frames submitted to Code_Attest
	Malformed         uint64 // framing rejects (no crypto run)
	AuthRejected      uint64 // tag verification failures
	FreshnessRejected uint64 // replay/reorder/delay rejects
	Faults            uint64 // bus faults inside Code_Attest (should be 0)
	Measurements      uint64 // full memory measurements performed
	FastResponses     uint64 // O(1) fast-path responses (no memory MAC)
	ClockTicks        uint64 // Code_Clock ISR executions
	ISRFaults         uint64 // bus faults inside Code_Clock (should be 0)
	Commands          uint64 // service-command frames submitted
	CommandsExecuted  uint64 // commands that passed the gate and ran
}

// Anchor is an installed trust anchor.
type Anchor struct {
	M          *mcu.MCU
	CodeAttest *mcu.Task
	CodeClock  *mcu.Task
	Wide       *mcu.WideClock
	LSB        *mcu.LSBClock
	Mon        *mcu.WriteMonitor

	cfg     Config
	keyAddr mcu.Addr

	cachedAuth    protocol.Authenticator
	cachedAuthKey [20]byte
	services      map[protocol.CommandKind]ServiceHandler
	swarm         swarmState

	Stats Stats
}

// NormalizeConfig validates cfg, fills defaults and applies the profile's
// constraints. Install calls it; callers that need the effective
// configuration *before* installing (e.g. to hardwire a SMART rule table)
// call it themselves.
func NormalizeConfig(cfg Config) (Config, error) {
	if len(cfg.AttestKey) != 0 && len(cfg.AttestKey) != int(KeySize) {
		return cfg, fmt.Errorf("anchor: K_Attest must be %d bytes, got %d", KeySize, len(cfg.AttestKey))
	}
	if cfg.Freshness == protocol.FreshTimestamp && cfg.Clock == ClockNone {
		return cfg, errors.New("anchor: timestamp freshness requires a clock design")
	}
	if cfg.AuthKind == protocol.AuthECDSA && cfg.VerifierPublic.Inf {
		return cfg, errors.New("anchor: ECDSA authentication requires the verifier's public key")
	}
	if cfg.KeyLocation != KeyInROM && cfg.KeyLocation != KeyInFlash {
		return cfg, fmt.Errorf("anchor: unknown key location %d", cfg.KeyLocation)
	}
	if cfg.Clock < ClockNone || cfg.Clock > ClockSW {
		return cfg, fmt.Errorf("anchor: unknown clock design %d", cfg.Clock)
	}
	switch cfg.Profile {
	case ProfileTrustLite:
	case ProfileSMART:
		// SMART: ROM key, uninterruptible ROM code, static protection.
		cfg.KeyLocation = KeyInROM
		cfg.InterruptibleAttest = false
	case ProfileTyTAN:
		cfg.InterruptibleAttest = true
	default:
		return cfg, fmt.Errorf("anchor: unknown profile %d", cfg.Profile)
	}
	if cfg.MeasuredRegion.Size == 0 {
		cfg.MeasuredRegion = mcu.RAMRegion
	}
	if cfg.NonceCapacity <= 0 {
		cfg.NonceCapacity = 256
	}
	if cfg.TimestampWindowMs == 0 {
		cfg.TimestampWindowMs = 1000
	}
	if cfg.TimestampSkewMs == 0 {
		cfg.TimestampSkewMs = 100
	}
	return cfg, nil
}

// Install provisions the anchor onto the MCU: registers the ROM tasks,
// writes K_Attest and the initial counter state, creates the configured
// clock hardware and initialises the IDT. It does not program the EA-MPU —
// that is secure boot's job (BootPolicy). Install is the factory step.
func Install(m *mcu.MCU, cfg Config) (*Anchor, error) {
	cfg, err := NormalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	if len(cfg.AttestKey) != int(KeySize) {
		return nil, fmt.Errorf("anchor: K_Attest must be %d bytes, got %d", KeySize, len(cfg.AttestKey))
	}
	if cfg.Profile == ProfileSMART && !m.MPU.Hardwired() {
		return nil, errors.New("anchor: the SMART profile requires a hardwired EA-MPU (mcu.Config.HardwiredRules)")
	}

	a := &Anchor{M: m, cfg: cfg}
	a.CodeAttest = m.RegisterTask(&mcu.Task{
		Name:            "code-attest",
		Code:            CodeAttestRegion,
		Uninterruptible: !cfg.InterruptibleAttest,
	})

	a.keyAddr = KeyAddrFor(cfg.KeyLocation)
	m.Space.DirectWrite(a.keyAddr, cfg.AttestKey)

	// counter_R starts at zero; nonce area starts empty; sync offset zero.
	m.Space.DirectWrite(CounterAddr, make([]byte, CounterSize))
	m.Space.DirectStore32(NonceAreaAddr, 0)
	m.Space.DirectWrite(SyncOffsetAddr, make([]byte, 8))

	if cfg.Monitor {
		// The monitor powers up dirty, so nothing provisioned here — or
		// later, by attack code — is ever vouched for without a full
		// measurement first.
		a.Mon = mcu.NewWriteMonitor(m, cfg.MeasuredRegion)
	}

	switch cfg.Clock {
	case ClockNone:
	case ClockWide64:
		a.Wide = mcu.NewWideClock(m, 64, 0)
	case ClockWide32Div:
		a.Wide = mcu.NewWideClock(m, 32, 20)
	case ClockSW:
		a.CodeClock = m.RegisterTask(&mcu.Task{
			Name:    "code-clock",
			Code:    CodeClockRegion,
			Handler: a.clockISR,
		})
		a.LSB = mcu.NewLSBClock(m, LSBWidth, 0, TimerIRQLine)
		// Factory-initialised IDT: timer line → Code_Clock entry point.
		m.Space.DirectStore32(IDTBase+mcu.Addr(4*TimerIRQLine), uint32(CodeClockRegion.Start))
		m.Space.DirectStore32(ClockMSBAddr, 0)
		a.LSB.Start()
	}
	return a, nil
}

// Config returns the installed configuration.
func (a *Anchor) Config() Config { return a.cfg }

// KeyAddr reports where K_Attest lives, for protection rules and attacks.
func (a *Anchor) KeyAddr() mcu.Addr { return a.keyAddr }

// KeyAddrFor reports where K_Attest lives for a key location.
func KeyAddrFor(loc KeyLocation) mcu.Addr {
	if loc == KeyInFlash {
		return KeyFlashAddr
	}
	return KeyROMAddr
}

// ProtectionRules derives the EA-MPU rule set implementing a
// configuration's protections (§6.2). It is a free function so SMART-style
// devices can hardwire the same rules at manufacture, before any anchor is
// installed.
func ProtectionRules(cfg Config) []mcu.Rule {
	var rules []mcu.Rule
	if cfg.Protection.Key {
		keyAddr := KeyAddrFor(cfg.KeyLocation)
		// Read-only even for Code_Attest: ROM keys cannot be written
		// anyway, and a flash key must be non-malleable (§5).
		rules = append(rules, mcu.Rule{
			Code: CodeAttestRegion, Data: mcu.Region{Start: keyAddr, Size: KeySize},
			Perm: mcu.PermRead, Enabled: true,
		})
	}
	if cfg.Protection.Counter {
		rules = append(rules, mcu.Rule{
			Code: CodeAttestRegion, Data: mcu.Region{Start: CounterAddr, Size: CounterSize},
			Perm: mcu.PermRead | mcu.PermWrite, Enabled: true,
		})
		if cfg.Freshness == protocol.FreshNonceHistory {
			rules = append(rules, mcu.Rule{
				Code: CodeAttestRegion, Data: nonceAreaFor(cfg.NonceCapacity),
				Perm: mcu.PermRead | mcu.PermWrite, Enabled: true,
			})
		}
	}
	if cfg.Protection.Clock {
		switch cfg.Clock {
		case ClockWide64, ClockWide32Div:
			// The clock window becomes readable by Code_Attest and
			// writable by nobody: the hardware counter is effectively
			// read-only (§6.2 "the hardware counter must be read-only").
			rules = append(rules, mcu.Rule{
				Code: CodeAttestRegion, Data: mcu.WideClockWindow,
				Perm: mcu.PermRead, Enabled: true,
			})
		case ClockSW:
			// Clock_MSB: writable only by Code_Clock, readable by
			// Code_Attest (two rules over the same word).
			msb := mcu.Region{Start: ClockMSBAddr, Size: 4}
			rules = append(rules,
				mcu.Rule{Code: CodeClockRegion, Data: msb,
					Perm: mcu.PermRead | mcu.PermWrite, Enabled: true},
				mcu.Rule{Code: CodeAttestRegion, Data: msb,
					Perm: mcu.PermRead, Enabled: true},
				// IDT immutable: only boot-ROM code may touch it.
				mcu.Rule{Code: mcu.BootROMTask, Data: mcu.Region{Start: IDTBase, Size: IDTSize},
					Perm: mcu.PermRead | mcu.PermWrite, Enabled: true},
				// Interrupt configuration (mask, IDT base) locked to boot
				// ROM: "disabling the timer interrupt must also be
				// prevented" (§6.2).
				mcu.Rule{Code: mcu.BootROMTask, Data: mcu.IRQWindow,
					Perm: mcu.PermRead | mcu.PermWrite, Enabled: true},
			)
		}
	}
	if cfg.Protection.SyncOffset {
		rules = append(rules, mcu.Rule{
			Code: CodeAttestRegion, Data: mcu.Region{Start: SyncOffsetAddr, Size: 8},
			Perm: mcu.PermRead | mcu.PermWrite, Enabled: true,
		})
	}
	if cfg.Monitor && cfg.Protection.Monitor {
		// Default-deny over the covered windows: with these the only rules
		// touching them, application code can neither rearm the latch nor
		// forge the stored digest the fast path vouches for.
		rules = append(rules,
			mcu.Rule{Code: CodeAttestRegion, Data: mcu.MonitorWindow,
				Perm: mcu.PermRead | mcu.PermWrite, Enabled: true},
			mcu.Rule{Code: CodeAttestRegion, Data: mcu.Region{Start: LastDigestAddr, Size: sha1.Size},
				Perm: mcu.PermRead | mcu.PermWrite, Enabled: true},
		)
	}
	return rules
}

// BootPolicy derives the secure-boot policy for this anchor: the EA-MPU
// rules implementing the configured protections, the IDT configuration and
// the timer unmasking. refDigest is the expected measurement of the flash
// application image. On the SMART profile the rules are already hardwired
// in the MPU, so boot only measures and configures interrupts.
func (a *Anchor) BootPolicy(refDigest [sha1.Size]byte, appImage mcu.Region) mcu.BootPolicy {
	p := mcu.BootPolicy{
		RefDigest:      refDigest,
		MeasuredRegion: appImage,
	}
	if a.cfg.Profile != ProfileSMART {
		p.Rules = ProtectionRules(a.cfg)
		p.LockMPU = a.cfg.Protection.LockMPU
	}
	if a.cfg.Clock == ClockSW {
		p.IDTBase = IDTBase
		p.LockIDT = true
		p.EnableIRQ = []int{TimerIRQLine}
	}
	return p
}

func nonceAreaFor(capacity int) mcu.Region {
	if capacity <= 0 {
		capacity = 256
	}
	return mcu.Region{Start: NonceAreaAddr, Size: 4 + uint32(capacity)*8}
}

// clockISR is Code_Clock (Figure 1b ③): increment Clock_MSB on each
// Clock_LSB wrap-around.
func (a *Anchor) clockISR(e *mcu.Exec) {
	e.Tick(60) // handler prologue/epilogue + RAM update
	v, f := e.Load32(ClockMSBAddr)
	if f != nil {
		a.Stats.ISRFaults++
		return
	}
	if f := e.Store32(ClockMSBAddr, v+1); f != nil {
		a.Stats.ISRFaults++
		return
	}
	a.Stats.ClockTicks++
}

// readClockMs reads the prover's clock through the configured design,
// converts it to milliseconds and applies the clock-sync offset maintained
// by the clock-synchronisation service. The bus accesses run as
// Code_Attest, so a protected clock is readable here but not from
// application code.
func (a *Anchor) readClockMs(e *mcu.Exec) (uint64, *mcu.Fault) {
	var base uint64
	switch a.cfg.Clock {
	case ClockWide64:
		v, f := e.Load64(mcu.WideClockValueAddr)
		if f != nil {
			return 0, f
		}
		base = v / cost.CyclesPerMilli
	case ClockWide32Div:
		v, f := e.Load32(mcu.WideClockValueAddr)
		if f != nil {
			return 0, f
		}
		base = uint64(v) << 20 / cost.CyclesPerMilli
	case ClockSW:
		lsb, f := e.Load32(mcu.LSBClockValueAddr)
		if f != nil {
			return 0, f
		}
		msb, f := e.Load32(ClockMSBAddr)
		if f != nil {
			return 0, f
		}
		base = (uint64(msb)<<LSBWidth | uint64(lsb)) / cost.CyclesPerMilli
	default:
		return 0, &mcu.Fault{Reason: "no clock configured"}
	}
	raw, f := e.Read(SyncOffsetAddr, 8)
	if f != nil {
		return 0, f
	}
	adjusted := int64(base) + int64(binary.LittleEndian.Uint64(raw))
	if adjusted < 0 {
		adjusted = 0
	}
	return uint64(adjusted), nil
}

// ReadClock exposes the trust anchor's clock reading (milliseconds,
// sync-adjusted) to service handlers running inside Code_Attest.
func (a *Anchor) ReadClock(e *mcu.Exec) (uint64, *mcu.Fault) {
	return a.readClockMs(e)
}

// SyncOffsetMs reads the clock-sync adjustment out-of-band (scenario
// bookkeeping and tests).
func (a *Anchor) SyncOffsetMs() int64 {
	return int64(binary.LittleEndian.Uint64(a.M.Space.DirectRead(SyncOffsetAddr, 8)))
}

// ReadCounter returns counter_R, bypassing protection (test/verifier-side
// bookkeeping, not a prover path).
func (a *Anchor) ReadCounter() uint64 {
	return binary.LittleEndian.Uint64(a.M.Space.DirectRead(CounterAddr, CounterSize))
}

// ClockNowMs reads the prover clock out-of-band (scenario bookkeeping),
// including the clock-sync adjustment.
func (a *Anchor) ClockNowMs() uint64 {
	var base uint64
	switch a.cfg.Clock {
	case ClockWide64:
		base = a.Wide.Value() / cost.CyclesPerMilli
	case ClockWide32Div:
		base = a.Wide.Value() << 20 / cost.CyclesPerMilli
	case ClockSW:
		msb := uint64(a.M.Space.DirectLoad32(ClockMSBAddr))
		lsb := uint64(a.LSB.Value())
		base = (msb<<LSBWidth | lsb) / cost.CyclesPerMilli
	default:
		return 0
	}
	adjusted := int64(base) + a.SyncOffsetMs()
	if adjusted < 0 {
		adjusted = 0
	}
	return uint64(adjusted)
}
