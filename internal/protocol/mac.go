package protocol

import (
	"crypto/hmac"
	"crypto/sha1"
	"hash"
)

// MAC is HMAC-SHA1 under one key, held for reuse. crypto/hmac saves the
// keyed state the first time it is Reset and restores it on every later
// Reset, so a held MAC pays no key schedule per message. Every method
// that computes a tag starts from Reset.
//
// hash.Hash's Write and Sum are interface calls, and a stack buffer
// passed through one escapes to the heap: one allocation per call. So a
// MAC keeps its own scratch for the small fields it absorbs (a request
// header, an epoch word, a digest) and for the tag, and computing a tag
// allocates nothing. Bytes a caller passes in (Tag's message, Measure's
// memory, the swarm digest inputs) must be heap memory to keep that
// property.
//
// A MAC holds mutable state and is not safe for concurrent use: its owner
// serialises it, as it already serialises the key's other state.
type MAC struct {
	h       hash.Hash
	scratch [FastMACMessageLen]byte
	sum     [sha1.Size]byte
}

// NewMAC keys a MAC.
func NewMAC(key []byte) *MAC {
	return &MAC{h: hmac.New(sha1.New, key)}
}

// Tag computes HMAC-SHA1(key, msg) into the MAC's own tag buffer and
// returns it. The buffer is overwritten by the MAC's next use.
func (m *MAC) Tag(msg []byte) *[sha1.Size]byte {
	m.h.Reset()
	m.h.Write(msg)
	return m.finish()
}

// finish finalises the message absorbed so far into the tag buffer.
func (m *MAC) finish() *[sha1.Size]byte {
	m.h.Sum(m.sum[:0])
	return &m.sum
}

// Measure computes the attestation measurement of req over memory,
// HMAC-SHA1(K_Attest, signed-request ‖ memory), into the MAC's tag
// buffer; memory must be heap memory.
func (m *MAC) Measure(req *AttReq, memory []byte) *[sha1.Size]byte {
	m.h.Reset()
	m.h.Write(req.AppendSignedBytes(m.scratch[:0]))
	m.h.Write(memory)
	return m.finish()
}
