package protocol

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"errors"
	"fmt"

	"proverattest/internal/crypto/cbcmac"
	"proverattest/internal/crypto/cost"
	"proverattest/internal/crypto/ecc"
	"proverattest/internal/crypto/speck"
)

// Authenticator is a request-authentication scheme (§4.1). Sign runs on
// the verifier; Verify runs on the prover and reports the prover-side
// cycle cost of the check so the trust anchor can account for it. Key
// schedules are expanded once at construction, matching the paper's
// "if key expansion is done in advance" accounting. The symmetric schemes
// hold their keyed state and tag scratch, so an Authenticator is not safe
// for concurrent use.
type Authenticator interface {
	Kind() AuthKind
	// Sign computes the request tag. It fails on verify-only instances
	// (an ECDSA authenticator built from the public key alone).
	Sign(signed []byte) ([]byte, error)
	// Verify checks tag over signed and returns the prover-side cost.
	Verify(signed, tag []byte) (bool, cost.Cycles)
	// TagLen is the byte length of tags this scheme produces.
	TagLen() int
}

// ErrVerifyOnly reports a Sign call on an authenticator that holds no
// signing key.
var ErrVerifyOnly = errors.New("protocol: authenticator holds no signing key")

// NewAuthenticator builds the scheme identified by kind, keyed with the
// shared symmetric key (HMAC/AES/Speck) — a convenience for the common
// symmetric case.
func NewAuthenticator(kind AuthKind, key []byte) (Authenticator, error) {
	switch kind {
	case AuthNone:
		return NoAuth{}, nil
	case AuthHMACSHA1:
		return NewHMACAuth(key), nil
	case AuthAESCBCMAC:
		return NewAESAuth(key)
	case AuthSpeckCBCMAC:
		return NewSpeckAuth(key)
	case AuthECDSA:
		return nil, errors.New("protocol: ECDSA authenticator needs a key pair, use NewECDSAAuth")
	}
	return nil, errors.New("protocol: unknown auth kind")
}

// NoAuth is the strawman: requests carry no tag and every request is
// accepted. This is the configuration the paper's §3.1 DoS analysis
// attacks.
type NoAuth struct{}

// Kind implements Authenticator.
func (NoAuth) Kind() AuthKind { return AuthNone }

// Sign implements Authenticator.
func (NoAuth) Sign(signed []byte) ([]byte, error) { return nil, nil }

// Verify implements Authenticator: always true, zero cost.
func (NoAuth) Verify(signed, tag []byte) (bool, cost.Cycles) { return len(tag) == 0, 0 }

// TagLen implements Authenticator.
func (NoAuth) TagLen() int { return 0 }

// HMACAuth authenticates requests with HMAC-SHA1 over the shared key.
// §4.1: validating one 512-bit message block costs ≈0.43 ms on the prover.
// It holds one MAC for Sign and Verify and is not safe for concurrent use.
type HMACAuth struct {
	mac *MAC
}

// NewHMACAuth keys the scheme.
func NewHMACAuth(key []byte) *HMACAuth {
	return &HMACAuth{mac: NewMAC(key)}
}

// Kind implements Authenticator.
func (a *HMACAuth) Kind() AuthKind { return AuthHMACSHA1 }

// Sign implements Authenticator. The returned tag is the only allocation.
func (a *HMACAuth) Sign(signed []byte) ([]byte, error) {
	return append([]byte(nil), a.mac.Tag(signed)[:]...), nil
}

// Verify implements Authenticator.
func (a *HMACAuth) Verify(signed, tag []byte) (bool, cost.Cycles) {
	return hmac.Equal(a.mac.Tag(signed)[:], tag), cost.HMACSHA1(len(signed))
}

// TagLen implements Authenticator.
func (a *HMACAuth) TagLen() int { return sha1.Size }

// cbcAuth is a CBC-MAC scheme over one block cipher, its key schedule
// expanded once (the paper's precomputed key schedule). tag is the
// scratch Verify computes into, sized for the larger (AES) block; the
// block is an interface, so a stack buffer would escape.
type cbcAuth struct {
	block cipher.Block
	tag   [aes.BlockSize]byte
}

// sign computes the CBC-MAC tag of signed into a new slice.
func (a *cbcAuth) sign(signed []byte) []byte {
	tag := make([]byte, a.block.BlockSize())
	cbcmac.Sum(a.block, tag, signed)
	return tag
}

// verify checks tag and reports the padded length the CBC pass covered.
func (a *cbcAuth) verify(signed, tag []byte) (bool, int) {
	n := a.block.BlockSize()
	cbcmac.Sum(a.block, a.tag[:n], signed)
	return hmac.Equal(a.tag[:n], tag), (len(signed)/n + 1) * n
}

// AESAuth authenticates requests with an AES-128 CBC-MAC.
type AESAuth struct{ cbcAuth }

// NewAESAuth expands an AES-128 key once.
func NewAESAuth(key []byte) (*AESAuth, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("protocol: AES-128 key is %d bytes, want 16", len(key))
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &AESAuth{cbcAuth{block: b}}, nil
}

// Kind implements Authenticator.
func (a *AESAuth) Kind() AuthKind { return AuthAESCBCMAC }

// Sign implements Authenticator.
func (a *AESAuth) Sign(signed []byte) ([]byte, error) { return a.sign(signed), nil }

// Verify implements Authenticator. The cost covers the padded CBC pass
// with the key schedule already expanded.
func (a *AESAuth) Verify(signed, tag []byte) (bool, cost.Cycles) {
	ok, padded := a.verify(signed, tag)
	return ok, cost.AESCBCMAC(padded, false)
}

// TagLen implements Authenticator.
func (a *AESAuth) TagLen() int { return aes.BlockSize }

// SpeckAuth authenticates requests with a Speck 64/128 CBC-MAC — the
// paper's cheapest option at 0.017 ms per 8-byte block with the schedule
// precomputed.
type SpeckAuth struct{ cbcAuth }

// NewSpeckAuth expands the key once.
func NewSpeckAuth(key []byte) (*SpeckAuth, error) {
	c, err := speck.New(key)
	if err != nil {
		return nil, err
	}
	return &SpeckAuth{cbcAuth{block: c}}, nil
}

// Kind implements Authenticator.
func (a *SpeckAuth) Kind() AuthKind { return AuthSpeckCBCMAC }

// Sign implements Authenticator.
func (a *SpeckAuth) Sign(signed []byte) ([]byte, error) { return a.sign(signed), nil }

// Verify implements Authenticator.
func (a *SpeckAuth) Verify(signed, tag []byte) (bool, cost.Cycles) {
	ok, padded := a.verify(signed, tag)
	return ok, cost.SpeckCBCMAC(padded, false)
}

// TagLen implements Authenticator.
func (a *SpeckAuth) TagLen() int { return speck.BlockSize }

// ECDSAAuth authenticates requests with secp160r1 signatures. The paper
// rules this out: at ~170 ms per verification on a 24 MHz prover, checking
// the signature is itself a DoS vector (§4.1).
type ECDSAAuth struct {
	priv *ecc.PrivateKey // nil on the prover, which only verifies
	pub  ecc.Point
}

// NewECDSAAuth builds the verifier-side instance (can sign).
func NewECDSAAuth(priv *ecc.PrivateKey) *ECDSAAuth {
	return &ECDSAAuth{priv: priv, pub: priv.Public}
}

// NewECDSAVerifier builds the prover-side instance (verify only).
func NewECDSAVerifier(pub ecc.Point) *ECDSAAuth {
	return &ECDSAAuth{pub: pub}
}

// Kind implements Authenticator.
func (a *ECDSAAuth) Kind() AuthKind { return AuthECDSA }

// Sign implements Authenticator.
func (a *ECDSAAuth) Sign(signed []byte) ([]byte, error) {
	if a.priv == nil {
		return nil, ErrVerifyOnly
	}
	sig, err := ecc.Sign(a.priv, signed)
	if err != nil {
		return nil, err
	}
	return sig.Encode(), nil
}

// Verify implements Authenticator.
func (a *ECDSAAuth) Verify(signed, tag []byte) (bool, cost.Cycles) {
	sig, err := ecc.DecodeSignature(tag)
	if err != nil {
		// A malformed signature is rejected without running the expensive
		// point arithmetic.
		return false, cost.Cycles(64)
	}
	return ecc.Verify(a.pub, signed, sig), cost.ECDSAVerify
}

// TagLen implements Authenticator.
func (a *ECDSAAuth) TagLen() int { return ecc.SignatureSize }
