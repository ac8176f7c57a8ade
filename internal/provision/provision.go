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

// GoldenRAM returns the deterministic RAM fill every simulated prover
// boots with: the golden image the verifier measures against.
func GoldenRAM() []byte {
	ram := make([]byte, RAMSize)
	for i := range ram {
		ram[i] = byte(i*31 + 5)
	}
	return ram
}

// VerifierKeyPair derives the deterministic ECDSA identity the verifier
// signs requests with when a deployment authenticates them by signature;
// provers are provisioned with its public half.
func VerifierKeyPair() (*ecc.PrivateKey, error) {
	return ecc.GenerateKey([]byte("proverattest-verifier-identity"))
}
