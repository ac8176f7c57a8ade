// Package core is the public façade of the reproduction: it assembles the
// simulated prover (MCU + trust anchor + secure boot + battery), the
// verifier, the Dolev-Yao channel and the adversaries into runnable
// scenarios, and provides the experiment drivers that regenerate the
// paper's results — the Table 2 attack×freshness matrix and the §5
// roaming-adversary campaigns.
package core

import (
	"crypto/sha1"
	"fmt"

	"proverattest/internal/anchor"
	"proverattest/internal/crypto/cost"
	"proverattest/internal/crypto/ecc"
	"proverattest/internal/energy"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
	"proverattest/internal/provision"
	"proverattest/internal/sim"
)

// DefaultAttestKey is the K_Attest provisioned into simulated devices.
// Shared between verifier and prover at manufacture, per the paper's
// symmetric-key model (§3).
var DefaultAttestKey = []byte{
	0x4b, 0x5f, 0x41, 0x74, 0x74, 0x65, 0x73, 0x74, 0x21, 0x21,
	0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99,
}

// AppImageSize is the size of the application firmware image measured by
// secure boot.
const AppImageSize = 32 * mcu.KiB

// AppImageRegion is the flash region secure boot verifies.
var AppImageRegion = mcu.Region{Start: mcu.FlashRegion.Start, Size: AppImageSize}

// DeviceConfig selects the prover's build: trust-anchor policy plus
// platform parameters.
type DeviceConfig struct {
	Anchor   anchor.Config
	MPURules int
	// Power and Battery enable energy accounting; nil Battery means
	// unlimited supply.
	Power   energy.PowerModel
	Battery *energy.Battery
}

// Device is an assembled, securely booted prover.
type Device struct {
	K       *sim.Kernel
	M       *mcu.MCU
	A       *anchor.Anchor
	Power   energy.PowerModel
	Battery *energy.Battery

	Boot      mcu.BootReport
	goldenRAM []byte

	drawnCycles cost.Cycles
}

// NewDevice provisions, installs and securely boots a prover on the given
// kernel. RAM and the application image are filled with deterministic
// patterns; the returned device's GoldenRAM is what an honest verifier
// expects to measure.
func NewDevice(k *sim.Kernel, cfg DeviceConfig) (*Device, error) {
	if cfg.MPURules == 0 {
		cfg.MPURules = 8
	}
	if cfg.Power == (energy.PowerModel{}) {
		cfg.Power = energy.DefaultPower()
	}
	if cfg.Anchor.AttestKey == nil {
		cfg.Anchor.AttestKey = DefaultAttestKey
	}
	mcuCfg := mcu.Config{MPURules: cfg.MPURules}
	if cfg.Anchor.Profile == anchor.ProfileSMART {
		// SMART: the protection rules are part of the silicon, not of the
		// boot flow. Derive them from the normalized anchor config and
		// hardwire them into the MPU.
		norm, err := anchor.NormalizeConfig(cfg.Anchor)
		if err != nil {
			return nil, fmt.Errorf("core: SMART configuration: %w", err)
		}
		mcuCfg.HardwiredRules = anchor.ProtectionRules(norm)
	}
	m := mcu.New(k, mcuCfg)
	a, err := anchor.Install(m, cfg.Anchor)
	if err != nil {
		return nil, fmt.Errorf("core: installing anchor: %w", err)
	}

	app := make([]byte, AppImageSize)
	for i := range app {
		app[i] = byte(i*13 + 7)
	}
	m.Space.DirectWrite(AppImageRegion.Start, app)
	ram := GoldenRAMPattern()
	m.Space.DirectWrite(mcu.RAMRegion.Start, ram)

	d := &Device{
		K:         k,
		M:         m,
		A:         a,
		Power:     cfg.Power,
		Battery:   cfg.Battery,
		goldenRAM: ram,
	}
	m.SecureBoot(a.BootPolicy(sha1.Sum(app), AppImageRegion), func(r mcu.BootReport) {
		d.Boot = r
	})
	// Drive the boot job to completion (bounded: periodic clocks keep the
	// queue alive forever).
	k.RunUntil(k.Now() + sim.Second)
	if !d.Boot.OK {
		return nil, fmt.Errorf("core: secure boot failed: %s", d.Boot.Reason)
	}
	return d, nil
}

// GoldenRAMPattern returns the deterministic RAM fill NewDevice installs,
// without building a device (provision.GoldenRAM, which the verifier
// daemon uses directly).
func GoldenRAMPattern() []byte { return provision.GoldenRAM() }

// GoldenRAM returns the expected measured-memory contents.
func (d *Device) GoldenRAM() []byte {
	return append([]byte(nil), d.goldenRAM...)
}

// SettleEnergy charges the battery for all active cycles accumulated since
// the last call (sleep draw is charged by ChargeSleep). Call at scenario
// end before reading the battery.
func (d *Device) SettleEnergy() {
	cycles := d.M.ActiveCycles - d.drawnCycles
	d.drawnCycles = d.M.ActiveCycles
	if d.Battery != nil {
		d.Battery.Draw(d.Power.ActiveEnergyJoules(cycles))
	}
}

// ChargeSleep bills the baseline sleep draw for a window of simulated time.
func (d *Device) ChargeSleep(window sim.Duration) {
	if d.Battery != nil {
		d.Battery.Draw(window.Seconds() * d.Power.SleepWatts)
	}
}

// ActiveEnergyJoules reports the total active-mode energy spent so far.
func (d *Device) ActiveEnergyJoules() float64 {
	return d.Power.ActiveEnergyJoules(d.M.ActiveCycles)
}

// VerifierKeyPair derives the deterministic ECDSA identity used when the
// scenario authenticates requests with signatures (provision.VerifierKeyPair).
func VerifierKeyPair() (*ecc.PrivateKey, error) { return provision.VerifierKeyPair() }

// NewDeviceAuth builds the prover-side anchor config fields for an auth
// kind: symmetric kinds need nothing extra; ECDSA needs the verifier's
// public key.
func NewDeviceAuth(kind protocol.AuthKind, cfg *anchor.Config) error {
	cfg.AuthKind = kind
	if kind == protocol.AuthECDSA {
		key, err := VerifierKeyPair()
		if err != nil {
			return err
		}
		cfg.VerifierPublic = key.Public
	}
	return nil
}
