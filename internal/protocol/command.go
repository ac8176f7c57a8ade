package protocol

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
)

// CommandKind names a prover-side security service invoked through the
// same authenticated, freshness-checked gate as attestation. This realises
// the paper's future-work item 3 — "generalize proposed techniques to
// other network protocols … to mitigate DoS attacks on other security
// services" — and §1's observation that attestation is a building block
// for secure code update and secure memory erasure.
type CommandKind uint8

// Service commands.
const (
	CmdSecureUpdate CommandKind = 1 // install a firmware image fragment
	CmdSecureErase  CommandKind = 2 // zeroise a memory region, with proof
	CmdClockSync    CommandKind = 3 // adjust the prover clock offset
)

func (k CommandKind) String() string {
	switch k {
	case CmdSecureUpdate:
		return "secure-update"
	case CmdSecureErase:
		return "secure-erase"
	case CmdClockSync:
		return "clock-sync"
	}
	return fmt.Sprintf("command(%d)", uint8(k))
}

// Command response status codes.
const (
	StatusOK      uint8 = 0
	StatusRefused uint8 = 1 // policy refused the operation (bad arguments)
	StatusError   uint8 = 2 // execution failed (e.g. bus fault)
)

// CommandReq is a verifier→prover service command. It carries the same
// authentication and freshness fields as an attestation request — the
// prover applies the identical gate before any work happens.
//
// Wire layout (little-endian):
//
//	offset 0  magic   0x41 'A' 0x43 'C'
//	offset 2  version 1
//	offset 3  command kind
//	offset 4  freshness kind
//	offset 5  auth kind
//	offset 6  reserved (2 bytes)
//	offset 8  nonce     (8)
//	offset 16 counter   (8)
//	offset 24 timestamp (8)
//	offset 32 body length (4)
//	offset 36 tag length  (2)
//	offset 38 body, then tag
type CommandReq struct {
	Kind      CommandKind
	Freshness FreshnessKind
	Auth      AuthKind
	Nonce     uint64
	Counter   uint64
	Timestamp uint64
	Body      []byte
	Tag       []byte
}

const (
	cmdReqMagic1   = 0x43
	cmdReqHeader   = 38
	maxCommandBody = 64 * 1024
)

// SignedBytes returns the authenticated portion: header (tag length
// zeroed) plus body. Kind, freshness fields and body are all under the
// tag, so neither command splicing nor payload swapping is possible.
func (r *CommandReq) SignedBytes() []byte {
	buf := make([]byte, cmdReqHeader+len(r.Body))
	r.encodeHeader(buf, 0)
	copy(buf[cmdReqHeader:], r.Body)
	return buf
}

func (r *CommandReq) encodeHeader(buf []byte, tagLen int) {
	buf[0] = reqMagic0
	buf[1] = cmdReqMagic1
	buf[2] = reqVersion
	buf[3] = byte(r.Kind)
	buf[4] = byte(r.Freshness)
	buf[5] = byte(r.Auth)
	binary.LittleEndian.PutUint64(buf[8:], r.Nonce)
	binary.LittleEndian.PutUint64(buf[16:], r.Counter)
	binary.LittleEndian.PutUint64(buf[24:], r.Timestamp)
	binary.LittleEndian.PutUint32(buf[32:], uint32(len(r.Body)))
	binary.LittleEndian.PutUint16(buf[36:], uint16(tagLen))
}

// AppendEncode appends the serialised command to dst and returns the
// extended slice.
func (r *CommandReq) AppendEncode(dst []byte) []byte {
	if len(r.Body) > maxCommandBody {
		panic(fmt.Sprintf("protocol: command body %d exceeds maximum %d", len(r.Body), maxCommandBody))
	}
	if len(r.Tag) > maxTagSize {
		panic(fmt.Sprintf("protocol: tag length %d exceeds maximum %d", len(r.Tag), maxTagSize))
	}
	off := len(dst)
	dst = append(dst, make([]byte, cmdReqHeader)...)
	r.encodeHeader(dst[off:], len(r.Tag))
	dst = append(dst, r.Body...)
	return append(dst, r.Tag...)
}

// Encode serialises the command.
func (r *CommandReq) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, cmdReqHeader+len(r.Body)+len(r.Tag)))
}

// DecodeCommandReq parses a command frame with strict framing.
func DecodeCommandReq(buf []byte) (*CommandReq, error) {
	if len(buf) < cmdReqHeader {
		return nil, fmt.Errorf("protocol: command too short (%d bytes)", len(buf))
	}
	if buf[0] != reqMagic0 || buf[1] != cmdReqMagic1 {
		return nil, fmt.Errorf("protocol: bad command magic %#x %#x", buf[0], buf[1])
	}
	if buf[2] != reqVersion {
		return nil, fmt.Errorf("protocol: unsupported command version %d", buf[2])
	}
	if buf[6] != 0 || buf[7] != 0 {
		return nil, fmt.Errorf("protocol: nonzero reserved bytes in command header")
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[32:]))
	tagLen := int(binary.LittleEndian.Uint16(buf[36:]))
	if bodyLen > maxCommandBody {
		return nil, fmt.Errorf("protocol: command body %d exceeds maximum %d", bodyLen, maxCommandBody)
	}
	if tagLen > maxTagSize {
		return nil, fmt.Errorf("protocol: tag length %d exceeds maximum %d", tagLen, maxTagSize)
	}
	if len(buf) != cmdReqHeader+bodyLen+tagLen {
		return nil, fmt.Errorf("protocol: command length %d does not match body %d + tag %d",
			len(buf), bodyLen, tagLen)
	}
	r := &CommandReq{
		Kind:      CommandKind(buf[3]),
		Freshness: FreshnessKind(buf[4]),
		Auth:      AuthKind(buf[5]),
		Nonce:     binary.LittleEndian.Uint64(buf[8:]),
		Counter:   binary.LittleEndian.Uint64(buf[16:]),
		Timestamp: binary.LittleEndian.Uint64(buf[24:]),
	}
	if bodyLen > 0 {
		r.Body = append([]byte(nil), buf[cmdReqHeader:cmdReqHeader+bodyLen]...)
	}
	if tagLen > 0 {
		r.Tag = append([]byte(nil), buf[cmdReqHeader+bodyLen:]...)
	}
	return r, nil
}

// CommandResp is the prover→verifier service response, authenticated with
// K_Attest so the verifier knows the trust anchor (not malware) executed
// the command.
//
// Wire layout (little-endian):
//
//	offset 0  magic   0x41 'A' 0x44 'D'
//	offset 2  version 1
//	offset 3  command kind
//	offset 4  status
//	offset 5  reserved (3)
//	offset 8  nonce (8, echoed)
//	offset 16 body length (4)
//	offset 20 tag length  (2)
//	offset 22 body, then tag (HMAC-SHA1 over the tagless frame)
type CommandResp struct {
	Kind   CommandKind
	Status uint8
	Nonce  uint64
	Body   []byte
	Tag    []byte
}

const (
	cmdRespMagic1 = 0x44
	cmdRespHeader = 22
)

// SignedBytes returns the authenticated portion of the response.
func (r *CommandResp) SignedBytes() []byte {
	buf := make([]byte, cmdRespHeader+len(r.Body))
	r.encodeHeader(buf, 0)
	copy(buf[cmdRespHeader:], r.Body)
	return buf
}

func (r *CommandResp) encodeHeader(buf []byte, tagLen int) {
	buf[0] = respMagic0
	buf[1] = cmdRespMagic1
	buf[2] = reqVersion
	buf[3] = byte(r.Kind)
	buf[4] = r.Status
	binary.LittleEndian.PutUint64(buf[8:], r.Nonce)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(r.Body)))
	binary.LittleEndian.PutUint16(buf[20:], uint16(tagLen))
}

// Seal computes the response tag with K_Attest.
func (r *CommandResp) Seal(attestKey []byte) {
	r.Tag = append([]byte(nil), NewMAC(attestKey).commandTag(r)[:]...)
}

// commandTag computes r's K_Attest tag over its tagless frame: the header
// is built in scratch, the body absorbed where it lies.
func (m *MAC) commandTag(r *CommandResp) *[sha1.Size]byte {
	hdr := m.scratch[:cmdRespHeader]
	r.encodeHeader(hdr, 0)
	m.h.Reset()
	m.h.Write(hdr)
	m.h.Write(r.Body)
	return m.finish()
}

// AppendEncode appends the serialised response to dst and returns the
// extended slice.
func (r *CommandResp) AppendEncode(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, cmdRespHeader)...)
	r.encodeHeader(dst[off:], len(r.Tag))
	dst = append(dst, r.Body...)
	return append(dst, r.Tag...)
}

// Encode serialises the response.
func (r *CommandResp) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, cmdRespHeader+len(r.Body)+len(r.Tag)))
}

// Static command-response decode errors: DecodeCommandRespInto runs on
// the daemon's per-frame path, where a hostile peer picks how often the
// error branches run.
var (
	errCmdRespLength   = errors.New("protocol: bad command-response length")
	errCmdRespMagic    = errors.New("protocol: bad command-response magic")
	errCmdRespVersion  = errors.New("protocol: unsupported command-response version")
	errCmdRespReserved = errors.New("protocol: nonzero reserved bytes in command-response header")
)

// DecodeCommandRespInto parses a command response into r without
// allocating: r.Body and r.Tag alias buf, so r is valid only while buf
// is. Errors are static.
func DecodeCommandRespInto(buf []byte, r *CommandResp) error {
	if len(buf) < cmdRespHeader {
		return errCmdRespLength
	}
	if buf[0] != respMagic0 || buf[1] != cmdRespMagic1 {
		return errCmdRespMagic
	}
	if buf[2] != reqVersion {
		return errCmdRespVersion
	}
	if buf[5] != 0 || buf[6] != 0 || buf[7] != 0 {
		return errCmdRespReserved
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[16:]))
	tagLen := int(binary.LittleEndian.Uint16(buf[20:]))
	if bodyLen > maxCommandBody || tagLen > maxTagSize || len(buf) != cmdRespHeader+bodyLen+tagLen {
		return errCmdRespLength
	}
	r.Kind = CommandKind(buf[3])
	r.Status = buf[4]
	r.Nonce = binary.LittleEndian.Uint64(buf[8:])
	r.Body = buf[cmdRespHeader : cmdRespHeader+bodyLen : cmdRespHeader+bodyLen]
	r.Tag = buf[cmdRespHeader+bodyLen:]
	return nil
}

// DecodeCommandResp parses a command response into a value of its own:
// body and tag are copied out of buf.
func DecodeCommandResp(buf []byte) (*CommandResp, error) {
	r := &CommandResp{}
	if err := DecodeCommandRespInto(buf, r); err != nil {
		return nil, err
	}
	r.Body = append([]byte(nil), r.Body...)
	r.Tag = append([]byte(nil), r.Tag...)
	return r, nil
}

// FrameKind classifies a raw frame by its magic, so endpoint demux can
// route attestation and command traffic without trial decoding.
type FrameKind int

// Frame classifications.
const (
	FrameUnknown FrameKind = iota
	FrameAttReq
	FrameAttResp
	FrameCommandReq
	FrameCommandResp
	FrameHello
	FrameStats
	FrameSwarmReq
	FrameSwarmResp
)

// ClassifyFrame inspects a frame's magic bytes. Every frame's magic
// starts with 'A' (0x41) and is followed by the version byte, so both are
// checked once and the kind is the second magic byte alone.
func ClassifyFrame(buf []byte) FrameKind {
	if len(buf) < 3 || buf[0] != reqMagic0 || buf[2] != reqVersion {
		return FrameUnknown
	}
	switch buf[1] {
	case reqMagic1:
		return FrameAttReq
	case respMagic1:
		return FrameAttResp
	case cmdReqMagic1:
		return FrameCommandReq
	case cmdRespMagic1:
		return FrameCommandResp
	case helloMagic1:
		return FrameHello
	case statsMagic1:
		return FrameStats
	case swarmReqMagic1:
		return FrameSwarmReq
	case swarmRespMagic1:
		return FrameSwarmResp
	}
	return FrameUnknown
}
