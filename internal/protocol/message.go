// Package protocol implements the attestation protocol between verifier
// (Vrf) and prover (Prv): the wire format of attestation requests and
// responses, the request-authentication schemes the paper compares in §4.1
// (none, HMAC-SHA1, AES-CBC-MAC, Speck-CBC-MAC, ECDSA/secp160r1), the
// freshness mechanisms of §4.2 (nonce history, monotonic counter,
// timestamp), and the verifier implementation. The prover side of the
// protocol runs inside the trust anchor (internal/anchor) on the simulated
// MCU.
package protocol

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
)

// FreshnessKind selects the anti-replay mechanism carried in requests.
type FreshnessKind uint8

// Freshness mechanisms (§4.2).
const (
	FreshNone FreshnessKind = iota
	FreshNonceHistory
	FreshCounter
	FreshTimestamp
)

func (k FreshnessKind) String() string {
	switch k {
	case FreshNone:
		return "none"
	case FreshNonceHistory:
		return "nonces"
	case FreshCounter:
		return "counter"
	case FreshTimestamp:
		return "timestamps"
	}
	return fmt.Sprintf("freshness(%d)", uint8(k))
}

// AuthKind selects the request-authentication scheme.
type AuthKind uint8

// Request-authentication schemes (§4.1).
const (
	AuthNone AuthKind = iota
	AuthHMACSHA1
	AuthAESCBCMAC
	AuthSpeckCBCMAC
	AuthECDSA
)

func (k AuthKind) String() string {
	switch k {
	case AuthNone:
		return "none"
	case AuthHMACSHA1:
		return "hmac-sha1"
	case AuthAESCBCMAC:
		return "aes-128-cbc-mac"
	case AuthSpeckCBCMAC:
		return "speck-64/128-cbc-mac"
	case AuthECDSA:
		return "ecdsa-secp160r1"
	}
	return fmt.Sprintf("auth(%d)", uint8(k))
}

// AttReq is a verifier→prover attestation request.
//
// Wire layout (little-endian):
//
//	offset 0  magic   0x41 'A' 0x52 'R' (attreq)
//	offset 2  version 1
//	offset 3  freshness kind
//	offset 4  auth kind
//	offset 5  flags (bit0 = fast path permitted; other bits reserved, zero)
//	offset 6  reserved (2 bytes, zero)
//	offset 8  nonce      (8 bytes)
//	offset 16 counter    (8 bytes)
//	offset 24 timestamp  (8 bytes, prover-clock milliseconds)
//	offset 32 tag length (2 bytes)
//	offset 34 tag        (variable)
type AttReq struct {
	Freshness FreshnessKind
	Auth      AuthKind
	// AllowFast permits the prover to answer with the O(1) fast-path MAC
	// when its write monitor reports the measured memory clean. The flag
	// sits inside SignedBytes, so a middleman cannot grant (or strip) the
	// permission without breaking the request tag.
	AllowFast bool
	Nonce     uint64
	Counter   uint64
	Timestamp uint64
	Tag       []byte
}

const (
	reqMagic0     = 0x41
	reqMagic1     = 0x52
	reqVersion    = 1
	reqHeaderSize = 34
	maxTagSize    = 64

	// reqFlagAllowFast marks a request whose issuer accepts the O(1)
	// fast-path response. Encoders predating the flag emit zero here, so
	// the wire format is unchanged for full-MAC-only deployments.
	reqFlagAllowFast = 1 << 0
)

// SignedBytes returns the authenticated portion of the request: the full
// header with the tag-length field zeroed and the tag absent. The
// freshness fields are inside the MAC, so an adversary cannot splice a
// fresh counter onto a recorded tag.
func (r *AttReq) SignedBytes() []byte {
	buf := make([]byte, reqHeaderSize)
	r.encodeHeader(buf, 0)
	return buf
}

// AppendSignedBytes appends the authenticated portion to dst, allocating
// only when dst lacks capacity — the fast-path MAC absorbs the signed
// header per frame and must not generate garbage doing so.
func (r *AttReq) AppendSignedBytes(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, reqHeaderSize)...)
	r.encodeHeader(dst[off:], 0)
	return dst
}

func (r *AttReq) encodeHeader(buf []byte, tagLen int) {
	buf[0] = reqMagic0
	buf[1] = reqMagic1
	buf[2] = reqVersion
	buf[3] = byte(r.Freshness)
	buf[4] = byte(r.Auth)
	buf[5] = 0
	if r.AllowFast {
		buf[5] = reqFlagAllowFast
	}
	buf[6], buf[7] = 0, 0
	binary.LittleEndian.PutUint64(buf[8:], r.Nonce)
	binary.LittleEndian.PutUint64(buf[16:], r.Counter)
	binary.LittleEndian.PutUint64(buf[24:], r.Timestamp)
	binary.LittleEndian.PutUint16(buf[32:], uint16(tagLen))
}

// AppendEncode appends the serialised request to dst and returns the
// extended slice. It allocates only when dst lacks capacity, so hot paths
// can reuse one scratch buffer across frames.
func (r *AttReq) AppendEncode(dst []byte) []byte {
	if len(r.Tag) > maxTagSize {
		panic(fmt.Sprintf("protocol: tag length %d exceeds maximum %d", len(r.Tag), maxTagSize))
	}
	off := len(dst)
	dst = append(dst, make([]byte, reqHeaderSize)...)
	r.encodeHeader(dst[off:], len(r.Tag))
	return append(dst, r.Tag...)
}

// Encode serialises the request.
func (r *AttReq) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, reqHeaderSize+len(r.Tag)))
}

// DecodeAttReq parses a request, validating framing strictly: a malformed
// request must be rejected before any cryptography runs.
func DecodeAttReq(buf []byte) (*AttReq, error) {
	if len(buf) < reqHeaderSize {
		return nil, fmt.Errorf("protocol: request too short (%d bytes)", len(buf))
	}
	if buf[0] != reqMagic0 || buf[1] != reqMagic1 {
		return nil, fmt.Errorf("protocol: bad request magic %#x %#x", buf[0], buf[1])
	}
	if buf[2] != reqVersion {
		return nil, fmt.Errorf("protocol: unsupported request version %d", buf[2])
	}
	// Undefined flag bits and reserved bytes must be zero: they are zero
	// in the authenticated re-encoding, so tolerating junk here would open
	// an unauthenticated covert channel through otherwise-valid frames.
	if buf[5]&^reqFlagAllowFast != 0 || buf[6] != 0 || buf[7] != 0 {
		return nil, fmt.Errorf("protocol: nonzero reserved bytes in request header")
	}
	tagLen := int(binary.LittleEndian.Uint16(buf[32:]))
	if tagLen > maxTagSize {
		return nil, fmt.Errorf("protocol: tag length %d exceeds maximum %d", tagLen, maxTagSize)
	}
	if len(buf) != reqHeaderSize+tagLen {
		return nil, fmt.Errorf("protocol: request length %d does not match tag length %d", len(buf), tagLen)
	}
	r := &AttReq{
		Freshness: FreshnessKind(buf[3]),
		Auth:      AuthKind(buf[4]),
		AllowFast: buf[5]&reqFlagAllowFast != 0,
		Nonce:     binary.LittleEndian.Uint64(buf[8:]),
		Counter:   binary.LittleEndian.Uint64(buf[16:]),
		Timestamp: binary.LittleEndian.Uint64(buf[24:]),
	}
	if tagLen > 0 {
		r.Tag = append([]byte(nil), buf[reqHeaderSize:reqHeaderSize+tagLen]...)
	}
	return r, nil
}

// Static request-decode errors for DecodeAttReqInto, pre-allocated so the
// prover-side fast path can reject malformed frames without garbage.
var (
	errReqLength   = errors.New("protocol: bad request length")
	errReqMagic    = errors.New("protocol: bad request magic")
	errReqVersion  = errors.New("protocol: unsupported request version")
	errReqReserved = errors.New("protocol: nonzero reserved bytes in request header")
	errReqTagLen   = errors.New("protocol: bad request tag length")
)

// DecodeAttReqInto parses a request into r without allocating beyond r's
// own tag buffer, which is reused across calls (append into r.Tag[:0]).
// It applies the same strict framing as DecodeAttReq with static errors;
// r is fully overwritten on success and unspecified on failure. This is
// the host-prover half of the zero-allocation fast path (the bench/
// generator and the server tests); the simulated anchor decodes inside
// the MCU instead.
func DecodeAttReqInto(buf []byte, r *AttReq) error {
	if len(buf) < reqHeaderSize {
		return errReqLength
	}
	if buf[0] != reqMagic0 || buf[1] != reqMagic1 {
		return errReqMagic
	}
	if buf[2] != reqVersion {
		return errReqVersion
	}
	if buf[5]&^reqFlagAllowFast != 0 || buf[6] != 0 || buf[7] != 0 {
		return errReqReserved
	}
	tagLen := int(binary.LittleEndian.Uint16(buf[32:]))
	if tagLen > maxTagSize || len(buf) != reqHeaderSize+tagLen {
		return errReqTagLen
	}
	r.Freshness = FreshnessKind(buf[3])
	r.Auth = AuthKind(buf[4])
	r.AllowFast = buf[5]&reqFlagAllowFast != 0
	r.Nonce = binary.LittleEndian.Uint64(buf[8:])
	r.Counter = binary.LittleEndian.Uint64(buf[16:])
	r.Timestamp = binary.LittleEndian.Uint64(buf[24:])
	r.Tag = append(r.Tag[:0], buf[reqHeaderSize:reqHeaderSize+tagLen]...)
	return nil
}

// AttResp is the prover→verifier attestation response: the request echo
// fields and the measurement MAC over the prover's writable memory, keyed
// with K_Attest and bound to the request (§3). A fast-path response (Fast
// set) instead carries the O(1) MAC over (signed request ‖ domain tag ‖
// monitor epoch ‖ last measured digest) — see FastMAC.
//
// Wire layout (little-endian):
//
//	offset 0  magic   0x41 'A' 0x50 'P' (attresp)
//	offset 2  version 1
//	offset 3  flags (bit0 = fast-path response; other bits reserved, zero)
//	offset 4  monitor epoch (4 bytes; zero when the prover has no monitor)
//	offset 8  nonce    (8 bytes, echoed)
//	offset 16 counter  (8 bytes, echoed)
//	offset 24 measurement (20 bytes, HMAC-SHA1)
//
// The flag and epoch fields are authenticated by inclusion in the fast
// MAC when Fast is set. On a full response the epoch is advisory — it
// seeds the verifier's fast state, and the worst a tamperer can do is
// desync that state, which only costs the prover a full MAC next round
// (fail-safe toward the expensive, fully-authenticated path).
type AttResp struct {
	Fast        bool
	Epoch       uint32
	Nonce       uint64
	Counter     uint64
	Measurement [sha1.Size]byte
}

const (
	respMagic0 = 0x41
	respMagic1 = 0x50
	respSize   = 24 + sha1.Size

	// respFlagFast marks an O(1) fast-path response.
	respFlagFast = 1 << 0
)

// AppendEncode appends the serialised response to dst and returns the
// extended slice.
func (r *AttResp) AppendEncode(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, respSize)...)
	buf := dst[off:]
	buf[0] = respMagic0
	buf[1] = respMagic1
	buf[2] = reqVersion
	buf[3] = 0
	if r.Fast {
		buf[3] = respFlagFast
	}
	binary.LittleEndian.PutUint32(buf[4:], r.Epoch)
	binary.LittleEndian.PutUint64(buf[8:], r.Nonce)
	binary.LittleEndian.PutUint64(buf[16:], r.Counter)
	copy(buf[24:], r.Measurement[:])
	return dst
}

// Encode serialises the response.
func (r *AttResp) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, respSize))
}

// Static response-decode errors. DecodeAttRespInto sits on the verifier
// daemon's per-frame path, where a hostile peer controls how often the
// error branches run — pre-allocated errors keep those branches
// allocation-free.
var (
	errRespLength   = errors.New("protocol: bad response length")
	errRespMagic    = errors.New("protocol: bad response magic")
	errRespVersion  = errors.New("protocol: unsupported response version")
	errRespReserved = errors.New("protocol: nonzero reserved bytes in response header")
)

// AttRespNonce makes a response's strict checks (length, magic, version,
// reserved flag bits) and reads only its nonce: it accepts exactly the
// frames DecodeAttRespInto accepts, with the same nonce. A gate that
// refuses a response by its nonce alone decodes nothing else first.
func AttRespNonce(buf []byte) (uint64, error) {
	if len(buf) != respSize {
		return 0, errRespLength
	}
	if buf[0] != respMagic0 || buf[1] != respMagic1 {
		return 0, errRespMagic
	}
	if buf[2] != reqVersion {
		return 0, errRespVersion
	}
	// Undefined flag bits must be zero. The epoch word is a protocol
	// field, not a covert channel: it only ever matters when the fast MAC
	// (which binds it) verifies, or as an advisory seed on full responses.
	if buf[3]&^respFlagFast != 0 {
		return 0, errRespReserved
	}
	return binary.LittleEndian.Uint64(buf[8:]), nil
}

// DecodeAttRespInto parses a response into r without allocating: the
// measurement is copied into r's array, so r aliases nothing in buf once
// the call returns. Errors are static (no per-frame detail) — use
// DecodeAttResp when diagnostics matter more than allocations.
func DecodeAttRespInto(buf []byte, r *AttResp) error {
	nonce, err := AttRespNonce(buf)
	if err != nil {
		return err
	}
	r.Fast = buf[3]&respFlagFast != 0
	r.Epoch = binary.LittleEndian.Uint32(buf[4:])
	r.Nonce = nonce
	r.Counter = binary.LittleEndian.Uint64(buf[16:])
	copy(r.Measurement[:], buf[24:])
	return nil
}

// DecodeAttResp parses a response.
func DecodeAttResp(buf []byte) (*AttResp, error) {
	r := &AttResp{}
	if err := DecodeAttRespInto(buf, r); err != nil {
		// Re-derive the detailed message for callers that report errors.
		switch {
		case len(buf) != respSize:
			return nil, fmt.Errorf("protocol: response length %d, want %d", len(buf), respSize)
		case buf[0] != respMagic0 || buf[1] != respMagic1:
			return nil, fmt.Errorf("protocol: bad response magic %#x %#x", buf[0], buf[1])
		case buf[2] != reqVersion:
			return nil, fmt.Errorf("protocol: unsupported response version %d", buf[2])
		default:
			return nil, err
		}
	}
	return r, nil
}
