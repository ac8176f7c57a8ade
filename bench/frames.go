package main

import (
	"math/rand"

	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// Hostile frames aimed at the daemon's gate (gate_flood, tier_flood). Each
// dies at a different stage: a pending-map miss, the strict decoder, the
// classifier.
const (
	kindUnsolicited   = iota // well-formed AttResp answering no outstanding nonce
	kindMalformedResp        // AttResp magic and version, wrong length
	kindUnknown              // no recognised frame kind
)

// Hostile frames aimed at the prover (prover_flood), the paper's verifier
// impersonator: each dies at a different check of the anchor's gate.
const (
	kindForged       = iota // well-formed request, garbage tag: auth check
	kindReplayed            // a genuine request the prover already served: freshness check
	kindMalformedReq        // request magic, unsupported version: parser
)

var proverKindNames = [3]string{"forged", "replayed", "malformed"}

// unsolicitedNonceBit keeps hostile nonces out of the daemon's range: the
// daemon numbers a device's requests 1, 2, 3, …, so a nonce with this bit
// set never answers an outstanding request.
const unsolicitedNonceBit = 1 << 62

// mixCycle returns n frame kinds (n a multiple of 3) in seeded 1:1:1
// cycles: every group of three is a random permutation of kinds 0, 1, 2.
func mixCycle(rng *rand.Rand, n int) []int {
	kinds := make([]int, 0, n)
	for len(kinds) < n {
		for _, k := range rng.Perm(3) {
			kinds = append(kinds, k)
		}
	}
	return kinds[:n]
}

// gateFrame builds one hostile daemon-bound frame.
func gateFrame(rng *rand.Rand, kind int) []byte {
	switch kind {
	case kindUnsolicited:
		r := protocol.AttResp{
			Epoch:   rng.Uint32(),
			Nonce:   unsolicitedNonceBit | rng.Uint64()>>2,
			Counter: rng.Uint64(),
		}
		rng.Read(r.Measurement[:])
		return r.Encode()
	case kindMalformedResp:
		// The classifier sees an AttResp (magic 'A' 'P', version 1); the
		// strict decoder refuses the length, which is never the 44 bytes
		// of a real response.
		b := make([]byte, 3+rng.Intn(41))
		rng.Read(b)
		b[0], b[1], b[2] = 0x41, 0x50, 1
		return b
	default:
		// 0x5A starts no frame magic, so the classifier rejects it whatever
		// follows.
		b := make([]byte, 3+rng.Intn(42))
		rng.Read(b)
		b[0] = 0x5A
		return b
	}
}

// gateStream pre-encodes the gate flood as batches of length-prefixed
// frames, each batch written with one Write. The kinds run in seeded
// 1:1:1 cycles across batch boundaries.
func gateStream(seed int64, batches, perBatch int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	kinds := mixCycle(rng, roundUp3(batches*perBatch))
	out := make([][]byte, batches)
	for b := range out {
		var buf []byte
		for _, k := range kinds[b*perBatch : (b+1)*perBatch] {
			buf = transport.AppendFrame(buf, gateFrame(rng, k))
		}
		out[b] = buf
	}
	return out
}

func roundUp3(n int) int { return (n + 2) / 3 * 3 }

// proverMix generates the impersonator's frames for the prover. Forged and
// malformed frames come from seeded pools; a replay is the latest genuine
// request the prover has already been given.
type proverMix struct {
	kinds     []int
	forged    [][]byte
	malformed [][]byte
}

func newProverMix(seed int64) *proverMix {
	rng := rand.New(rand.NewSource(seed))
	m := &proverMix{kinds: mixCycle(rng, 3*256)}
	for i := 0; i < 64; i++ {
		req := protocol.AttReq{
			Freshness: protocol.FreshCounter,
			Auth:      protocol.AuthHMACSHA1,
			Nonce:     rng.Uint64(),
			Counter:   rng.Uint64(),
			Tag:       make([]byte, 20),
		}
		rng.Read(req.Tag)
		m.forged = append(m.forged, req.Encode())

		b := make([]byte, 5+rng.Intn(36))
		rng.Read(b)
		b[0], b[1], b[2] = 0x41, 0x52, 0xFF
		m.malformed = append(m.malformed, b)
	}
	return m
}

// frame returns the n-th hostile frame and its kind.
func (m *proverMix) frame(n int, lastGenuine []byte) (int, []byte) {
	k := m.kinds[n%len(m.kinds)]
	switch k {
	case kindForged:
		return k, m.forged[n%len(m.forged)]
	case kindReplayed:
		if lastGenuine == nil {
			return kindForged, m.forged[n%len(m.forged)]
		}
		return k, lastGenuine
	default:
		return k, m.malformed[n%len(m.malformed)]
	}
}

// deviceKey is a device's K_Attest as the daemon derives it.
func deviceKey(id string) []byte {
	k := protocol.DeriveDeviceKey([]byte(benchMaster), id)
	return k[:]
}

func helloFrame(id string) []byte {
	h := protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: id}
	return h.Encode()
}
