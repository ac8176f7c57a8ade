package protocol

// Swarm attestation frames and tag derivation (SEDA-style collective
// attestation): provers form a spanning tree, each node MACs its own
// measurement state and folds its children's aggregate tags into one
// frame, so the verifier checks a single aggregate instead of N
// responses. The verifier recomputes the expected aggregate from
// per-device verified state (internal/swarm); these are the wire frames
// and the keyed primitives both ends share.

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
)

// SwarmReq is the verifier→swarm aggregate-attestation request, broadcast
// down the spanning tree. It is authenticated with the fleet-wide swarm
// broadcast key K_Swarm (DeriveSwarmKey) so every node can gate-check the
// request before doing any measurement work — the §3.1 DoS asymmetry
// argument applies per hop. Root addresses a subtree for bisection;
// OwnOnly asks the addressed node for its own contribution without
// aggregating children (the leaf probe of the bisection contract).
//
// Wire layout (little-endian):
//
//	offset 0  magic   0x41 'A' 0x57 'W' (swarmreq)
//	offset 2  version 1
//	offset 3  flags (bit0 = own-only; other bits reserved, zero)
//	offset 4  root (2 bytes, member index of the addressed subtree root)
//	offset 6  reserved (2 bytes, zero)
//	offset 8  nonce   (8 bytes, fresh per query)
//	offset 16 tree id (8 bytes, identifies the topology generation)
//	offset 24 tag length (2 bytes)
//	offset 26 tag (variable)
type SwarmReq struct {
	// OwnOnly asks the addressed root for its own tag without folding
	// children — the bisection leaf probe.
	OwnOnly bool
	// Root is the member index of the subtree root this request addresses.
	Root   uint16
	Nonce  uint64
	TreeID uint64
	Tag    []byte
}

const (
	swarmReqMagic1     = 0x57
	swarmReqHeaderSize = 26

	// swarmReqFlagOwnOnly marks a bisection probe for one node's own tag.
	swarmReqFlagOwnOnly = 1 << 0
)

// SignedBytes returns the authenticated portion of the request: the full
// header with the tag-length field zeroed. Root and OwnOnly sit inside
// the MAC, so a middleman cannot redirect a probe at a different subtree.
func (r *SwarmReq) SignedBytes() []byte {
	buf := make([]byte, swarmReqHeaderSize)
	r.encodeHeader(buf, 0)
	return buf
}

// AppendSignedBytes appends the authenticated portion to dst, allocating
// only when dst lacks capacity — every node absorbs the signed header per
// round and must not generate garbage doing so.
func (r *SwarmReq) AppendSignedBytes(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, swarmReqHeaderSize)...)
	r.encodeHeader(dst[off:], 0)
	return dst
}

func (r *SwarmReq) encodeHeader(buf []byte, tagLen int) {
	buf[0] = reqMagic0
	buf[1] = swarmReqMagic1
	buf[2] = reqVersion
	buf[3] = 0
	if r.OwnOnly {
		buf[3] = swarmReqFlagOwnOnly
	}
	binary.LittleEndian.PutUint16(buf[4:], r.Root)
	buf[6], buf[7] = 0, 0
	binary.LittleEndian.PutUint64(buf[8:], r.Nonce)
	binary.LittleEndian.PutUint64(buf[16:], r.TreeID)
	binary.LittleEndian.PutUint16(buf[24:], uint16(tagLen))
}

// Sign computes and attaches the request tag with gate, a MAC held under
// K_Swarm. The signed header is built in the MAC's scratch; the attached
// tag is the only allocation.
func (r *SwarmReq) Sign(gate *MAC) {
	r.Tag = append([]byte(nil), gate.Tag(r.AppendSignedBytes(gate.scratch[:0]))[:]...)
}

// AppendEncode appends the serialised request to dst and returns the
// extended slice. It allocates only when dst lacks capacity.
func (r *SwarmReq) AppendEncode(dst []byte) []byte {
	if len(r.Tag) > maxTagSize {
		panic(fmt.Sprintf("protocol: swarm tag length %d exceeds maximum %d", len(r.Tag), maxTagSize))
	}
	off := len(dst)
	dst = append(dst, make([]byte, swarmReqHeaderSize)...)
	r.encodeHeader(dst[off:], len(r.Tag))
	return append(dst, r.Tag...)
}

// Encode serialises the request.
func (r *SwarmReq) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, swarmReqHeaderSize+len(r.Tag)))
}

// Static swarm-request decode errors, pre-allocated so per-hop gate
// rejection of malformed frames stays allocation-free.
var (
	errSwarmReqLength   = errors.New("protocol: bad swarm request length")
	errSwarmReqMagic    = errors.New("protocol: bad swarm request magic")
	errSwarmReqVersion  = errors.New("protocol: unsupported swarm request version")
	errSwarmReqReserved = errors.New("protocol: nonzero reserved bytes in swarm request header")
	errSwarmReqTagLen   = errors.New("protocol: bad swarm request tag length")
)

// DecodeSwarmReqInto parses a request into r without allocating beyond
// r's own tag buffer, which is reused across calls. Strict framing with
// static errors; r is fully overwritten on success and unspecified on
// failure.
func DecodeSwarmReqInto(buf []byte, r *SwarmReq) error {
	if len(buf) < swarmReqHeaderSize {
		return errSwarmReqLength
	}
	if buf[0] != reqMagic0 || buf[1] != swarmReqMagic1 {
		return errSwarmReqMagic
	}
	if buf[2] != reqVersion {
		return errSwarmReqVersion
	}
	if buf[3]&^swarmReqFlagOwnOnly != 0 || buf[6] != 0 || buf[7] != 0 {
		return errSwarmReqReserved
	}
	tagLen := int(binary.LittleEndian.Uint16(buf[24:]))
	if tagLen > maxTagSize || len(buf) != swarmReqHeaderSize+tagLen {
		return errSwarmReqTagLen
	}
	r.OwnOnly = buf[3]&swarmReqFlagOwnOnly != 0
	r.Root = binary.LittleEndian.Uint16(buf[4:])
	r.Nonce = binary.LittleEndian.Uint64(buf[8:])
	r.TreeID = binary.LittleEndian.Uint64(buf[16:])
	r.Tag = append(r.Tag[:0], buf[swarmReqHeaderSize:swarmReqHeaderSize+tagLen]...)
	return nil
}

// DecodeSwarmReq parses a request with detailed errors.
func DecodeSwarmReq(buf []byte) (*SwarmReq, error) {
	r := &SwarmReq{}
	if err := DecodeSwarmReqInto(buf, r); err != nil {
		switch {
		case len(buf) < swarmReqHeaderSize:
			return nil, fmt.Errorf("protocol: swarm request too short (%d bytes)", len(buf))
		case buf[0] != reqMagic0 || buf[1] != swarmReqMagic1:
			return nil, fmt.Errorf("protocol: bad swarm request magic %#x %#x", buf[0], buf[1])
		case buf[2] != reqVersion:
			return nil, fmt.Errorf("protocol: unsupported swarm request version %d", buf[2])
		default:
			return nil, err
		}
	}
	if len(r.Tag) == 0 {
		r.Tag = nil
	}
	return r, nil
}

// SwarmResp is the node→parent (and root→verifier) aggregate response:
// one tag folding the subtree's member contributions, a presence bitmap
// over the fleet's member-index space, and the subtree height for
// topology sanity checks.
//
// Wire layout (little-endian):
//
//	offset 0  magic   0x41 'A' 0x56 'V' (swarmresp)
//	offset 2  version 1
//	offset 3  depth (1 byte, subtree height in hops; 0 = leaf or own-only)
//	offset 4  root (2 bytes, echoed subtree-root member index)
//	offset 6  bitmap length (2 bytes)
//	offset 8  nonce (8 bytes, echoed)
//	offset 16 aggregate (20 bytes, HMAC-SHA1 fold)
//	offset 36 bitmap (variable, bit i = member i contributed)
type SwarmResp struct {
	Depth     uint8
	Root      uint16
	Nonce     uint64
	Aggregate [sha1.Size]byte
	Bitmap    []byte
}

const (
	swarmRespMagic1     = 0x56
	swarmRespHeaderSize = 36

	// maxSwarmBitmap bounds the presence bitmap at 8 KiB — 65536 members,
	// the full uint16 index space.
	maxSwarmBitmap = 8192
)

// SwarmBitmapLen is the presence-bitmap size for an n-member fleet.
func SwarmBitmapLen(n int) int { return (n + 7) / 8 }

// SetSwarmBit marks member i present.
func SetSwarmBit(bm []byte, i int) { bm[i/8] |= 1 << (i % 8) }

// SwarmBit reports whether member i is marked present.
func SwarmBit(bm []byte, i int) bool {
	if i/8 >= len(bm) {
		return false
	}
	return bm[i/8]&(1<<(i%8)) != 0
}

// AppendEncode appends the serialised response to dst and returns the
// extended slice. It allocates only when dst lacks capacity.
func (r *SwarmResp) AppendEncode(dst []byte) []byte {
	if len(r.Bitmap) > maxSwarmBitmap {
		panic(fmt.Sprintf("protocol: swarm bitmap length %d exceeds maximum %d", len(r.Bitmap), maxSwarmBitmap))
	}
	off := len(dst)
	dst = append(dst, make([]byte, swarmRespHeaderSize)...)
	buf := dst[off:]
	buf[0] = respMagic0
	buf[1] = swarmRespMagic1
	buf[2] = reqVersion
	buf[3] = r.Depth
	binary.LittleEndian.PutUint16(buf[4:], r.Root)
	binary.LittleEndian.PutUint16(buf[6:], uint16(len(r.Bitmap)))
	binary.LittleEndian.PutUint64(buf[8:], r.Nonce)
	copy(buf[16:], r.Aggregate[:])
	return append(dst, r.Bitmap...)
}

// Encode serialises the response.
func (r *SwarmResp) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, swarmRespHeaderSize+len(r.Bitmap)))
}

// Static swarm-response decode errors: DecodeSwarmRespInto sits on the
// verifier daemon's per-frame path where a hostile peer controls how
// often the reject branches run.
var (
	errSwarmRespLength = errors.New("protocol: bad swarm response length")
	errSwarmRespMagic  = errors.New("protocol: bad swarm response magic")
	errSwarmRespVer    = errors.New("protocol: unsupported swarm response version")
	errSwarmRespBitmap = errors.New("protocol: bad swarm response bitmap length")
)

// DecodeSwarmRespInto parses a response into r without allocating beyond
// r's own bitmap buffer, which is reused across calls (append into
// r.Bitmap[:0]). r aliases nothing in buf once the call returns; r is
// fully overwritten on success and unspecified on failure.
func DecodeSwarmRespInto(buf []byte, r *SwarmResp) error {
	if len(buf) < swarmRespHeaderSize {
		return errSwarmRespLength
	}
	if buf[0] != respMagic0 || buf[1] != swarmRespMagic1 {
		return errSwarmRespMagic
	}
	if buf[2] != reqVersion {
		return errSwarmRespVer
	}
	bmLen := int(binary.LittleEndian.Uint16(buf[6:]))
	if bmLen > maxSwarmBitmap || len(buf) != swarmRespHeaderSize+bmLen {
		return errSwarmRespBitmap
	}
	r.Depth = buf[3]
	r.Root = binary.LittleEndian.Uint16(buf[4:])
	r.Nonce = binary.LittleEndian.Uint64(buf[8:])
	copy(r.Aggregate[:], buf[16:])
	r.Bitmap = append(r.Bitmap[:0], buf[swarmRespHeaderSize:swarmRespHeaderSize+bmLen]...)
	return nil
}

// DecodeSwarmResp parses a response with detailed errors.
func DecodeSwarmResp(buf []byte) (*SwarmResp, error) {
	r := &SwarmResp{}
	if err := DecodeSwarmRespInto(buf, r); err != nil {
		switch {
		case len(buf) < swarmRespHeaderSize:
			return nil, fmt.Errorf("protocol: swarm response too short (%d bytes)", len(buf))
		case buf[0] != respMagic0 || buf[1] != swarmRespMagic1:
			return nil, fmt.Errorf("protocol: bad swarm response magic %#x %#x", buf[0], buf[1])
		case buf[2] != reqVersion:
			return nil, fmt.Errorf("protocol: unsupported swarm response version %d", buf[2])
		default:
			return nil, err
		}
	}
	if len(r.Bitmap) == 0 {
		r.Bitmap = nil
	}
	return r, nil
}

// Swarm tag derivation. Three domain-separated HMAC-SHA1 layers, all
// keyed with the member's per-device K_Attest:
//
//	mem_i  = HMAC(K_i, "swarm-mem-v1" ‖ memory)
//	own_i  = HMAC(K_i, signed-req ‖ "swarm-own-v1" ‖ index ‖ epoch ‖ mem_i)
//	agg_i  = own_i                                  (no present children)
//	       = HMAC(K_i, "swarm-fold-v1" ‖ own_i ‖ agg_c1 ‖ … ‖ agg_ck)
//	                                                (present children, child order)
//
// mem_i is request-independent, so a clean node (write monitor armed, no
// stores since the last measurement) reuses its stored digest and answers
// a round in O(1); the verifier memoizes HMAC(K_i, "swarm-mem-v1" ‖
// golden) once per device and recomputes the whole expected aggregate in
// N small MACs per round. The epoch binds the RATA monitor generation:
// any out-of-band rearm desyncs own_i from the verifier's record exactly
// as the 1:1 fast path does.
var (
	swarmMemDomain  = []byte("swarm-mem-v1")
	swarmOwnDomain  = []byte("swarm-own-v1")
	swarmFoldDomain = []byte("swarm-fold-v1")
)

// DeriveSwarmKey derives the fleet-wide swarm broadcast key K_Swarm from
// the deployment master secret: HMAC-SHA1(master, "K_Swarm"). It only
// authenticates tree-wide requests (gating, not evidence) — member
// evidence is always keyed per device, so K_Swarm leaking from one
// member lets an adversary waste fleet energy but never forge an
// aggregate.
func DeriveSwarmKey(master []byte) [sha1.Size]byte {
	return *NewMAC(master).Tag([]byte("K_Swarm"))
}

// SwarmMemDigestInto computes mem_i into out using mac (keyed with the
// member's K_Attest) without allocating; mem must be heap memory.
func SwarmMemDigestInto(mac *MAC, mem []byte, out *[sha1.Size]byte) {
	mac.h.Reset()
	mac.h.Write(swarmMemDomain)
	mac.h.Write(mem)
	*out = *mac.finish()
}

// SwarmMemDigest is the allocating convenience form of SwarmMemDigestInto.
func SwarmMemDigest(key, mem []byte) [sha1.Size]byte {
	var out [sha1.Size]byte
	SwarmMemDigestInto(NewMAC(key), mem, &out)
	return out
}

// SwarmOwnTagInto computes own_i into out using mac (keyed with the
// member's K_Attest) without allocating: signedReq is the request's
// AppendSignedBytes image (heap memory), index the member's tree index,
// epoch the monitor generation the digest was measured under.
func SwarmOwnTagInto(mac *MAC, signedReq []byte, index uint16, epoch uint32, memDigest *[sha1.Size]byte, out *[sha1.Size]byte) {
	b := append(mac.scratch[:0], swarmOwnDomain...)
	b = binary.LittleEndian.AppendUint16(b, index)
	b = binary.LittleEndian.AppendUint32(b, epoch)
	b = append(b, memDigest[:]...)
	mac.h.Reset()
	mac.h.Write(signedReq)
	mac.h.Write(b)
	*out = *mac.finish()
}

// SwarmFoldStart begins an aggregate fold over mac (keyed with the
// folding member's K_Attest), absorbing the member's own tag. Child
// aggregates follow via SwarmFoldChild in child order; SwarmFoldFinish
// emits the tag. A node with no present children skips the fold entirely
// and uses own_i as its aggregate.
func SwarmFoldStart(mac *MAC, own *[sha1.Size]byte) {
	mac.h.Reset()
	mac.h.Write(append(append(mac.scratch[:0], swarmFoldDomain...), own[:]...))
}

// SwarmFoldChild absorbs one present child's aggregate tag.
func SwarmFoldChild(mac *MAC, childAgg *[sha1.Size]byte) {
	mac.h.Write(append(mac.scratch[:0], childAgg[:]...))
}

// SwarmFoldFinish finalises the fold into out without allocating.
func SwarmFoldFinish(mac *MAC, out *[sha1.Size]byte) {
	*out = *mac.finish()
}
