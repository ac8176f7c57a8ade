package protocol

import (
	"crypto/sha1"
	"encoding/binary"
)

// The O(1) attestation fast path, after RATA ("On the TOCTOU Problem in
// Remote Attestation"). A prover whose write monitor reports the measured
// memory untouched since the last full measurement does not re-MAC all of
// memory; it answers with a MAC over the signed request, the monitor
// epoch, and the digest that full measurement produced:
//
//	FastMAC = HMAC-SHA1(K_Attest,
//	          signed-request ‖ "RATA-fast-v1" ‖ epoch_le32 ‖ last-digest)
//
// Binding the epoch into the MAC input is what catches a prover that lies
// about cleanliness: clearing the dirty bit out-of-band necessarily bumps
// the epoch (the monitor's rearm register is the only way to clear it),
// so the prover computes its fast MAC over an epoch the verifier never
// verified a measurement for, the tags mismatch, and the verifier drops
// its fast state — driving the device back to the full-memory MAC, where
// resident modifications are caught. The domain tag keeps the fast MAC
// disjoint from the full measurement MAC (which is keyed identically but
// absorbs the memory image).

// fastDomain separates fast-path MACs from full measurement MACs under
// the shared K_Attest.
var fastDomain = []byte("RATA-fast-v1")

// FastMAC computes the O(1) fast-path response MAC for req, vouching that
// the memory behind lastDigest is unchanged through monitor epoch epoch.
func FastMAC(attestKey []byte, req *AttReq, epoch uint32, lastDigest *[sha1.Size]byte) [sha1.Size]byte {
	return *NewMAC(attestKey).fast(req, epoch, lastDigest)
}

// fast computes the fast-path MAC into the MAC's tag buffer. The whole
// message is assembled in scratch and absorbed in one Write.
func (m *MAC) fast(req *AttReq, epoch uint32, lastDigest *[sha1.Size]byte) *[sha1.Size]byte {
	b := req.AppendSignedBytes(m.scratch[:0])
	b = append(b, fastDomain...)
	b = binary.LittleEndian.AppendUint32(b, epoch)
	b = append(b, lastDigest[:]...)
	return m.Tag(b)
}

// FastMACMessageLen is the fast-path MAC input length in bytes, for cycle
// cost accounting on the simulated prover.
const FastMACMessageLen = reqHeaderSize + 12 + 4 + sha1.Size

// FastResponder is the prover-side fast-path state machine for hosts that
// stand in for provers without a simulated MCU (the server tests' and the
// bench/ generator's devices). It mirrors the write-monitor semantics: a full
// measurement rearms the monitor and bumps the epoch; after that,
// RespondInto answers fast-permitted requests in O(1) until Taint marks
// the memory dirty. All state — including both MAC computations — reuses
// pre-allocated buffers, so the clean fast path is zero allocations per
// frame (pinned in fastpath_alloc_test.go). A FastResponder holds a MAC
// and is not safe for concurrent use.
type FastResponder struct {
	mac    *MAC
	golden []byte

	epoch  uint32
	digest [sha1.Size]byte
	clean  bool
}

// NewFastResponder builds a responder for a prover holding attestKey
// whose measured memory content is golden. The monitor starts dirty, so
// the first round always pays the full MAC.
func NewFastResponder(attestKey, golden []byte) *FastResponder {
	return &FastResponder{mac: NewMAC(attestKey), golden: golden}
}

// Taint latches the responder's dirty bit, as a store to attested memory
// would on the simulated platform.
func (fr *FastResponder) Taint() { fr.clean = false }

// Clean reports whether the next fast-permitted request will take the
// fast path.
func (fr *FastResponder) Clean() bool { return fr.clean && fr.epoch > 0 }

// RespondInto answers req into resp. When the request permits it and the
// memory is clean since the last full measurement, the O(1) fast MAC is
// used and fast is true; otherwise the full golden measurement runs,
// rearming the monitor. resp is fully overwritten.
func (fr *FastResponder) RespondInto(req *AttReq, resp *AttResp) (fast bool) {
	resp.Nonce = req.Nonce
	resp.Counter = req.Counter
	if req.AllowFast && fr.Clean() {
		resp.Measurement = *fr.mac.fast(req, fr.epoch, &fr.digest)
		resp.Fast = true
		resp.Epoch = fr.epoch
		return true
	}
	// Full measurement: MAC over (signed request ‖ memory), then rearm.
	fr.digest = *fr.mac.Measure(req, fr.golden)
	fr.epoch++
	fr.clean = true
	resp.Fast = false
	resp.Epoch = fr.epoch
	resp.Measurement = fr.digest
	return false
}
