// Package provision holds the material both ends of a deployment are
// provisioned with that the verifier needs without a simulated device:
// the golden RAM image every prover boots, and the verifier's ECDSA
// identity. It imports no simulator package, so the verifier daemon
// (cmd/attestd) gets both without linking the prover simulator;
// internal/core installs the same image on its simulated devices.
package provision

import "proverattest/internal/crypto/ecc"

// RAMSize is the size in bytes of the prover's attested RAM, 512 KiB
// (mcu.RAMRegion.Size; a core test pins the two equal).
const RAMSize = 512 * 1024

// goldenPeriod is the period of the golden image: byte i is
// byte(i*31 + 5), which depends only on i mod 256.
const goldenPeriod = 256

// GoldenRAM returns the deterministic RAM fill every simulated prover
// boots with: the golden image the verifier measures against. Byte i is
// byte(i*31 + 5). It writes one period and doubles the filled prefix with
// copy until the image is full, so building it costs about the page
// faults of a fresh 512 KiB slice rather than a loop over every byte.
// Each call returns a new slice the caller owns.
func GoldenRAM() []byte {
	ram := make([]byte, RAMSize)
	for i := range goldenPeriod {
		ram[i] = byte(i*31 + 5)
	}
	for n := goldenPeriod; n < len(ram); n *= 2 {
		copy(ram[n:], ram[:n])
	}
	return ram
}

// VerifierKeyPair derives the deterministic ECDSA identity the verifier
// signs requests with when a deployment authenticates them by signature;
// provers are provisioned with its public half.
func VerifierKeyPair() (*ecc.PrivateKey, error) {
	return ecc.GenerateKey([]byte("proverattest-verifier-identity"))
}
